// Command trustreport quantifies the trusted computing base of the RAE
// deployment, the accounting the paper calls for in §4.3: "We expect to
// quantify the code we trust (i.e., reused)."
//
// It walks the repository's Go sources, counts non-blank non-comment lines
// per package, and groups packages into trust classes:
//
//   - trusted-correct: the shadow side and everything it relies on to be
//     right (shadowfs, fsck, model, and the shared format/API codecs) plus
//     the lean hand-off interface;
//   - trusted-reused: base code paths recovery reuses (journal replay,
//     mount, cache Install) — the paper's "reused" trust;
//   - untrusted: the performance-oriented base and its machinery, whose
//     bugs RAE exists to mask;
//   - harness: workloads, injection, differential testing — test apparatus.
//
// Usage: trustreport [-root .]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

var trustClass = map[string]string{
	".":                    "trusted-reused", // the public facade
	"internal/shadowfs":    "trusted-correct",
	"internal/fsck":        "trusted-correct",
	"internal/model":       "trusted-correct",
	"internal/disklayout":  "trusted-correct",
	"internal/fsapi":       "trusted-correct",
	"internal/fserr":       "trusted-correct",
	"internal/handoff":     "trusted-correct",
	"internal/oplog":       "trusted-correct",
	"internal/journal":     "trusted-reused",
	"internal/mkfs":        "trusted-reused",
	"internal/core":        "trusted-reused",
	"internal/blockdev":    "trusted-reused",
	"internal/basefs":      "untrusted",
	"internal/cache":       "untrusted",
	"internal/faultinject": "harness",
	"internal/workload":    "harness",
	"internal/difftest":    "harness",
	"internal/bugstudy":    "harness",
}

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	perPkg := map[string]int{}
	perPkgTests := map[string]int{}
	err := filepath.Walk(*root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		rel, err := filepath.Rel(*root, path)
		if err != nil {
			return err
		}
		pkg := filepath.Dir(rel)
		n, err := countCode(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			perPkgTests[pkg] += n
		} else {
			perPkg[pkg] += n
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "trustreport: %v\n", err)
		os.Exit(1)
	}

	classTotals := map[string]int{}
	classTests := map[string]int{}
	var pkgs []string
	for pkg := range perPkg {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	fmt.Printf("%-26s %-16s %8s %8s\n", "package", "trust class", "code", "tests")
	for _, pkg := range pkgs {
		class := trustClass[pkg]
		if class == "" {
			switch {
			case strings.HasPrefix(pkg, "cmd/"), strings.HasPrefix(pkg, "examples/"):
				class = "harness"
			default:
				class = "unclassified"
			}
		}
		fmt.Printf("%-26s %-16s %8d %8d\n", pkg, class, perPkg[pkg], perPkgTests[pkg])
		classTotals[class] += perPkg[pkg]
		classTests[class] += perPkgTests[pkg]
	}
	fmt.Println()
	fmt.Printf("%-26s %8s %8s\n", "trust class", "code", "tests")
	for _, class := range []string{"trusted-correct", "trusted-reused", "untrusted", "harness", "unclassified"} {
		if classTotals[class] == 0 && classTests[class] == 0 {
			continue
		}
		fmt.Printf("%-26s %8d %8d\n", class, classTotals[class], classTests[class])
	}
	tcb := classTotals["trusted-correct"] + classTotals["trusted-reused"]
	all := 0
	for _, n := range classTotals {
		all += n
	}
	fmt.Printf("\ntrusted computing base: %d of %d non-test lines (%.0f%%)\n",
		tcb, all, float64(tcb)/float64(all)*100)
}

// countCode counts non-blank lines outside comments. Block comments are
// tracked coarsely (a /* ... */ spanning code lines is rare in this tree).
func countCode(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	inBlock := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if inBlock {
			if strings.Contains(line, "*/") {
				inBlock = false
			}
			continue
		}
		if strings.HasPrefix(line, "//") {
			continue
		}
		if strings.HasPrefix(line, "/*") {
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
			continue
		}
		n++
	}
	return n, sc.Err()
}
