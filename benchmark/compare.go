package main

import (
	"fmt"
	"io"
)

// compareFiles prints, per (metric, workload), the baseline's value, the
// candidate's, the change and the bound, and marks the rows that got worse
// by more than their bound. It returns 1 if any end-to-end row did, or if a
// workload's share of failed calls rose; per-layer rows are shown but never
// fail the comparison.
func compareFiles(out io.Writer, basePath, candPath string) int {
	base, err := readReport(basePath)
	if err != nil {
		fatal(err)
	}
	cand, err := readReport(candPath)
	if err != nil {
		fatal(err)
	}
	return compare(out, base, cand)
}

func compare(out io.Writer, base, cand *report) int {
	bad := 0
	for _, a := range base.Workloads {
		var b *result
		for _, r := range cand.Workloads {
			if r.Name == a.Name {
				b = r
			}
		}
		if b == nil {
			fmt.Fprintf(out, "\n== %s: missing from the candidate  <-- OUTSIDE\n", a.Name)
			bad++
			continue
		}
		fmt.Fprintf(out, "\n== %s\n  %-36s %16s %16s %9s %7s\n", a.Name, "metric", "base", "candidate", "change", "bound")
		fa, fb := ratio(float64(a.Failed), float64(a.Attempted)), ratio(float64(b.Failed), float64(b.Attempted))
		mark := ""
		if fb > fa {
			mark = "  <-- ROSE"
			bad++
		}
		fmt.Fprintf(out, "  %-36s %16.6f %16.6f %9s %7s%s\n", "failed_ops_share", fa, fb, "", "", mark)
		for _, d := range metricDefs {
			va, oka := a.Metrics[d.name]
			vb, okb := b.Metrics[d.name]
			if !oka && !okb {
				continue
			}
			// change is signed so that positive is worse.
			change := ratio(vb.Value-va.Value, va.Value)
			if d.higher {
				change = -change
			}
			bound, mark := "", ""
			if d.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", d.bound*100)
				if oka != okb || change > d.bound {
					mark = "  <-- OUTSIDE"
					bad++
				}
			}
			fmt.Fprintf(out, "  %-36s %16.4f %16.4f %+8.1f%% %7s%s\n", d.name, va.Value, vb.Value, 100*change, bound, mark)
		}
	}
	if bad > 0 {
		fmt.Fprintf(out, "\n%d rows outside their bound (change is signed so that positive is worse)\n", bad)
		return 1
	}
	fmt.Fprintln(out, "\nevery end-to-end row within its bound")
	return 0
}
