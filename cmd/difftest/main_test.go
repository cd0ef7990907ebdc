package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/basefs"
	"repro/internal/faultinject"
	"repro/internal/workload"
)

func TestCampaignCleanImplementationsPass(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, []string{"base", "shadow"}, 2, 400, []workload.Profile{workload.Soup}, basefs.Options{})
	if err != nil {
		t.Fatalf("clean campaign: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"base vs specification: 2 runs, 800 ops, 0 discrepancies",
		"shadow vs specification: 2 runs, 800 ops, 0 discrepancies",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// TestCampaignFindsSeededBaseBug is the detection half of §4.3: a campaign
// against a base with a planted silent-corruption bug must surface
// discrepancies ("disagreements ... indicate bugs in the base").
func TestCampaignFindsSeededBaseBug(t *testing.T) {
	reg := faultinject.NewRegistry(17)
	reg.Arm(&faultinject.Specimen{
		ID: "campaign-bug", Class: faultinject.SilentCorrupt,
		Deterministic: true, Op: "writeat", Point: "inode", AfterN: 20,
	})
	var out bytes.Buffer
	err := run(&out, []string{"base"}, 2, 500, []workload.Profile{workload.DataHeavy}, basefs.Options{Injector: reg})
	if !errors.Is(err, errDiscrepancies) {
		t.Fatalf("campaign missed the planted base bug: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "  first: base subject, dataheavy profile") {
		t.Errorf("no first-failure description:\n%s", out.String())
	}
	t.Logf("campaign caught: %v\n%s", err, out.String())
}
