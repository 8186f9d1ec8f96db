// Command aru-fsck checks a logical-disk image for consistency.
//
// It runs full crash recovery on the image (read-only: the image file
// itself is never written), verifies the engine's internal invariants,
// reports blocks leaked by uncommitted ARUs, and — when the image holds
// a Minix file system — runs the file-system consistency scan that the
// ARU design makes redundant.
//
// Usage:
//
//	aru-fsck [-fs] image.lld
package main

import (
	"flag"
	"fmt"
	"os"

	"aru"
)

func main() {
	checkFS := flag.Bool("fs", false, "also check the Minix file system on the image")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: aru-fsck [-fs] image.lld")
		os.Exit(2)
	}
	img, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	dev := aru.NewMemDevice(int64(len(img)))
	dev = dev.Reopen(img)

	d, rpt, err := aru.OpenReport(dev, aru.Params{})
	if err != nil {
		fatal(fmt.Errorf("recovery failed: %w", err))
	}
	fmt.Printf("recovery: checkpoint ts %d, %d segments replayed, %d entries\n",
		rpt.CheckpointTS, rpt.SegmentsReplayed, rpt.EntriesReplayed)
	fmt.Printf("checkpoint chain: depth %d, %d delta pages materialized\n",
		rpt.DeltaChainDepth, rpt.DeltaPagesReplayed)
	fmt.Printf("scan: %d redo entries skipped by version bounds\n", rpt.RedoSkipped)
	fmt.Printf("ARUs: %d recovered, %d dropped (uncommitted at crash)\n",
		rpt.ARUsRecovered, rpt.ARUsDropped)
	fmt.Printf("leak sweep: %d blocks freed\n", rpt.LeakedFreed)

	if err := d.VerifyInternal(); err != nil {
		fatal(fmt.Errorf("invariant violation: %w", err))
	}
	fmt.Println("logical disk: consistent")

	if *checkFS {
		fs, err := aru.MountFS(d, aru.DeleteBlocksFirst)
		if err != nil {
			fatal(fmt.Errorf("no mountable file system: %w", err))
		}
		chk, err := fs.Fsck()
		if err != nil {
			fatal(fmt.Errorf("file system inconsistent: %w", err))
		}
		fmt.Printf("file system: clean — %d inodes used, %d files, %d dirs, %d bytes\n",
			chk.InodesUsed, chk.FilesFound, chk.DirsFound, chk.BytesInFiles)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aru-fsck:", err)
	os.Exit(1)
}
