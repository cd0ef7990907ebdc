package main

import (
	"reflect"
	"testing"

	"repro/internal/difftest"
	"repro/internal/fsapi"
	"repro/internal/model"
)

const testScale = 0.05

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		sb, err := geometry(w)
		if err != nil {
			t.Fatal(err)
		}
		a, err := generate(w, sb, 7, 0, testScale)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, _ := generate(w, sb, 7, 0, testScale)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different traces", w.name)
		}
		c, _ := generate(w, sb, 8, 0, testScale)
		if reflect.DeepEqual(a.lap, c.lap) {
			t.Errorf("%s: seeds 7 and 8 gave the same lap", w.name)
		}
		if w.clients > 1 {
			d, _ := generate(w, sb, 7, 1, testScale)
			if reflect.DeepEqual(a.lap, d.lap) {
				t.Errorf("%s: clients 0 and 1 got the same lap", w.name)
			}
		}
	}
}

// drive applies ops to a model through the same executor the benchmark uses
// and counts the outcomes that differ from the oracle.
func drive(t *testing.T, m *model.Model, tr *trace, ops []op) (mismatches, errors int) {
	t.Helper()
	for i := range ops {
		o := &ops[i]
		got, err := call(m, tr, o, fsapi.FD(o.fd))
		if err != nil {
			errors++
		}
		if !o.matches(got, true) {
			mismatches++
		}
	}
	return mismatches, errors
}

// TestLapsRepeat is what lets a run of any length reuse one lap: executed a
// second and third time, the lap has the oracle outcomes it was generated
// with, produces no error returns, and leaves the state it left the first
// time (the logical clock aside).
func TestLapsRepeat(t *testing.T) {
	for _, w := range workloads {
		sb, _ := geometry(w)
		tr, err := generate(w, sb, 3, 0, testScale)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		m := model.New(sb)
		if mis, errs := drive(t, m, tr, tr.pre); mis != 0 || errs != 0 {
			t.Fatalf("%s: set-up ops: %d mismatches, %d errors", w.name, mis, errs)
		}
		var first map[string]difftest.Entry
		for lap := 1; lap <= 3; lap++ {
			mis, errs := drive(t, m, tr, tr.lap)
			if mis != 0 || errs != 0 {
				t.Errorf("%s: lap %d: %d outcomes differ from the oracle, %d error returns", w.name, lap, mis, errs)
			}
			if n := len(m.OpenFDs()); n != 0 {
				t.Errorf("%s: lap %d leaves %d descriptors open", w.name, lap, n)
			}
			st, err := dump(m, true)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = st
			} else if disc := difftest.CompareStates(st, first); len(disc) != 0 {
				t.Errorf("%s: state after lap %d differs from after lap 1: %v", w.name, lap, disc[0])
			}
		}
	}
}

func TestGeneratedMixes(t *testing.T) {
	count := func(ops []op) (kinds [numKinds]int, faults int) {
		for _, o := range ops {
			kinds[o.kind]++
			if o.fault {
				faults++
			}
		}
		return
	}
	sb, _ := geometry(findWorkload("fault_storm"))
	storm, err := generate(findWorkload("fault_storm"), sb, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	kinds, faults := count(storm.lap)
	muts := len(storm.lap) - kinds[opStat]
	if want := muts / 400; faults < want*8/10 || faults > want {
		t.Errorf("storm lap plants %d faults in %d state-changing ops, want about one per 400", faults, muts)
	}
	if kinds[opSync] < muts/250 {
		t.Errorf("storm lap has %d Syncs in %d state-changing ops, want one per 200", kinds[opSync], muts)
	}
	if f, _ := count(storm.pre); f[opSync] != 1 {
		t.Errorf("storm set-up has %d Syncs, want 1", f[opSync])
	}

	hot, err := generate(findWorkload("read_hot"), sb, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	kinds, _ = count(hot.lap)
	if kinds[opSync]+kinds[opFsync] != 0 {
		t.Errorf("hot lap syncs %d times, want none", kinds[opSync]+kinds[opFsync])
	}
	steps := kinds[opStat] + kinds[opReaddir] + kinds[opOpen]
	if share := float64(kinds[opWrite]) / float64(steps); share < 0.04 || share > 0.08 {
		t.Errorf("hot lap: %.3f of steps are updates, want about 0.06", share)
	}
}
