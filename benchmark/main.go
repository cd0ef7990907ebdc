// Command benchmark is the regression benchmark for the whole stack: six
// steady-state workloads driven closed-loop from this one process against
// the supervised filesystem and the served fleet, with end-to-end metrics,
// per-layer metrics read from the counters the program already publishes,
// isolation probes, a traced run, and a correctness gate. See README.md.
//
// Three ways to run it (through run.sh, which builds it first):
//
//	run.sh -seed 1                       every workload: timed pass, traced
//	                                     pass, probes, gate; prints every
//	                                     metric, writes out/result-seed1.json
//	run.sh --workload W --seed N --seconds S --trace 0|1
//	                                     one workload for the driver; the last
//	                                     line of stdout is the result object
//	run.sh -compare a.json b.json        holds b to a's end-to-end values
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload")
		seed    = flag.Int64("seed", 1, "seed every trace is generated from")
		seconds = flag.Float64("seconds", 15, "length of one measured pass")
		trace   = flag.Int("trace", -1, "driver mode: 0 prints the end-to-end metrics of a timed pass, 1 the per-layer metrics of a traced one; unset prints everything")
		smoke   = flag.Bool("smoke", false, "tiny sizing (every workload under a second) that still runs every pass, probe and gate")
		cmp     = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		outDir  = flag.String("out", "benchmark/out", "directory for span files and the result file")
	)
	flag.Parse()
	if *cmp {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	s := settings{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		probeSeconds: time.Second, scale: 1, setups: 5, outDir: *outDir,
	}
	if *smoke {
		s = smokeSettings(*seed, *outDir)
	}
	suite := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		suite = []*workload{w}
	}
	if *trace >= 0 {
		if len(suite) != 1 {
			fatal(fmt.Errorf("-trace needs -workload"))
		}
		os.Exit(driverRun(suite[0], s, *trace == 1))
	}

	rep := report{Seed: s.seed, Seconds: s.seconds.Seconds(), Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUs: runtime.NumCPU()}
	ok := true
	for _, w := range suite {
		res, err := runWorkload(w, s, true)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		printResult(os.Stdout, res)
		rep.Workloads = append(rep.Workloads, res)
		ok = ok && res.Correct
	}
	path := filepath.Join(s.outDir, fmt.Sprintf("result-seed%d.json", s.seed))
	if err := rep.write(path); err != nil {
		fatal(err)
	}
	fmt.Printf("\nresult written to %s, span files to %s\n", path, s.outDir)
	if !ok {
		fmt.Println("CORRECTNESS GATE FAILED")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// smokeSettings is the sizing the tests use: short laps, short passes, one
// set-up, and every code path of a full run.
func smokeSettings(seed int64, outDir string) settings {
	return settings{seed: seed, seconds: 300 * time.Millisecond, probeSeconds: 50 * time.Millisecond,
		scale: 0.02, setups: 1, outDir: outDir}
}

// runWorkload runs one workload's timed pass and, if asked, its traced pass
// and probes.
func runWorkload(w *workload, s settings, traced bool) (*result, error) {
	res := &result{Name: w.name, Metrics: values{}}
	pr, p, err := timedPass(w, s, res)
	if err != nil {
		return nil, err
	}
	if traced {
		if err := tracedPass(pr, s, p, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// driverRun is one run as the benchmark driver asks for it. A timed run
// measures for the full time and reports the end-to-end metrics. A traced
// run splits the time between the untraced reference pass and the traced
// pass and reports every other metric, 0 for one that does not apply to the
// workload.
func driverRun(w *workload, s settings, traced bool) int {
	if traced {
		s.seconds /= 2
		s.setups = 1
	}
	res, err := runWorkload(w, s, traced)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	for _, v := range res.violations {
		fmt.Fprintln(os.Stderr, "violation:", v)
	}
	fmt.Println(string(driverLine(res, traced)))
	if !res.Correct {
		return 1
	}
	return 0
}

// driverLine is the result object the driver reads from the last line of
// standard output: the end-to-end metrics of a timed run, every other metric
// of a traced one.
func driverLine(res *result, traced bool) []byte {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for _, d := range metricDefs {
		if (d.class == endToEnd) != traced {
			line.Metrics[d.name] = metric{res.Metrics[d.name].Value, d.unit}
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fatal(err) // a non-finite value: a bug in a metric's arithmetic
	}
	return out
}

// report is the machine-readable result of a full run; -compare reads two.
type report struct {
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Go         string    `json:"go"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	CPUs       int       `json:"cpus"`
	Workloads  []*result `json:"workloads"`
}

func (rep *report) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// printResult prints every metric of one workload by name, with its unit and
// the number of samples behind it.
func printResult(out *os.File, res *result) {
	fmt.Fprintf(out, "\n== %s: %d calls attempted, %d failed (failed_ops_share %.6f)\n",
		res.Name, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, d := range metricDefs {
		v, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		bound := ""
		if d.bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%, %s is better", d.bound*100, d.better())
		}
		fmt.Fprintf(out, "  %-36s %16.4f %-6s n=%-9d%s\n", d.name, v.Value, v.Unit, v.N, bound)
	}
	sort.Strings(res.notes)
	for _, n := range res.notes {
		fmt.Fprintln(out, "  note:", n)
	}
	for _, v := range res.violations {
		fmt.Fprintln(out, "  VIOLATION:", v)
	}
}
