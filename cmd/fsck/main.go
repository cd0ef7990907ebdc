// Command fsck checks a file-backed image with the shadow-grade structural
// checker and prints every problem found.
//
// Usage:
//
//	fsck -img disk.img [-replay] [-fix]
//
// -replay first replays the journal (what mount would do) so a cleanly
// crashed image checks clean. The check is fsck.Check, the engine recovery
// and scrub run.
//
// Exit codes follow the e2fsck-style contract:
//
//	0  image is clean
//	1  warnings only (benign inconsistencies, e.g. leaked blocks)
//	2  corruption found (structural damage; after -fix, damage that remains)
//	3  device unreadable (the image could not be checked at all)
//	4  usage or operational error (bad flags, repair write failure)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/blockdev"
	"repro/internal/fsck"
	"repro/internal/mkfs"
)

func main() {
	img := flag.String("img", "", "path of the image file to check")
	replay := flag.Bool("replay", false, "replay the journal before checking")
	fix := flag.Bool("fix", false, "repair orphans, ghosts, leaks, and link counts")
	flag.Parse()
	if *img == "" {
		fmt.Fprintln(os.Stderr, "fsck: -img is required")
		flag.Usage()
		os.Exit(4)
	}
	dev, err := blockdev.OpenFile(*img, 0, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsck: %v\n", err)
		os.Exit(3)
	}
	defer dev.Close()
	if *replay {
		if _, st, err := mkfs.Recover(dev); err != nil {
			fmt.Fprintf(os.Stderr, "fsck: journal replay: %v\n", err)
			os.Exit(3)
		} else if st.Committed > 0 {
			fmt.Printf("journal: replayed %d transactions (%d blocks)\n", st.Committed, st.Blocks)
		}
	}
	var rep *fsck.Report
	if *fix {
		// Repair runs the same rule engine as Check, so the report it returns
		// grades severity on the same thresholds and ExitCode below means the
		// same thing on both paths.
		var st fsck.RepairStats
		rep, st, err = fsck.Repair(dev)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsck: repair: %v\n", err)
			os.Exit(4)
		}
		fmt.Printf("repair: %d orphans freed (%d blocks), %d ghosts cleared, %d leaks freed, %d nlinks fixed\n",
			st.OrphansFreed, st.BlocksFreed, st.GhostsCleared, st.LeaksFreed, st.NlinksFixed)
	} else {
		rep = fsck.Check(dev)
	}
	for _, p := range rep.Problems {
		fmt.Println(p)
	}
	fmt.Printf("checked %d inodes, %d owned blocks, %d directories; %d checks run\n",
		rep.InodesChecked, rep.BlocksOwned, rep.DirsWalked, rep.ChecksRun)
	switch code := rep.ExitCode(); code {
	case 0:
		fmt.Println("image is clean")
	case 1:
		fmt.Printf("image has %d warnings\n", rep.Warnings())
		os.Exit(code)
	case 3:
		fmt.Println("image is UNREADABLE")
		os.Exit(code)
	default:
		fmt.Println("image is CORRUPT")
		os.Exit(code)
	}
}
