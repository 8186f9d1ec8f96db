// Command aru-inspect dumps the on-disk structures of a logical-disk
// image: superblock, checkpoint regions, the chunks of every segment, and
// — with -seg — the summary entries of one segment, chunk by chunk.
//
// Usage:
//
//	aru-inspect [-seg N] [-max M] [-tables] [-stats] image.lld
//	aru-inspect [-tables] [-stats] imagedir
//
// -stats recovers the image in memory with a tracer attached and
// prints the recovery report, the full operation-counter snapshot and
// the recovery's span tree.
//
// Given a directory (as written by aru-serve -shards: shard0.lld …
// plus coord.lld), it inspects the sharded disk: each shard's
// superblock and checkpoints, the coordinator log's commit records,
// and with -stats each shard's recovery report and span tree —
// resolving in-doubt cross-shard prepares against the coordinator log
// exactly as multi-shard recovery would — followed by the merged
// statistics of the recovered sharded disk. All recovery runs on
// in-memory copies; the images are never modified.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"aru"
	"aru/internal/seg"
	"aru/internal/shard"
)

func main() {
	segIdx := flag.Int("seg", -1, "dump summary entries of this segment")
	maxEnt := flag.Int("max", 64, "maximum entries to print per segment")
	tables := flag.Bool("tables", false, "run recovery and print the reconstructed lists")
	stats := flag.Bool("stats", false, "run recovery and print counters, recovery report and span tree")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: aru-inspect [-seg N] [-max M] [-tables] [-stats] image.lld|imagedir")
		os.Exit(2)
	}
	if fi, err := os.Stat(flag.Arg(0)); err == nil && fi.IsDir() {
		inspectShardDir(flag.Arg(0), *tables, *stats)
		return
	}
	img, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	layout, err := seg.DecodeSuper(img)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("superblock: block %d B, segment %d KB, %d segments, max %d blocks / %d lists (%d MB total)\n",
		layout.BlockSize, layout.SegBytes/1024, layout.NumSegs,
		layout.MaxBlocks, layout.MaxLists, layout.DiskBytes()>>20)

	for i := 0; i < 2; i++ {
		off := layout.CkptOff(i)
		if off+layout.CkptRegionBytes() > int64(len(img)) {
			fatal(fmt.Errorf("image truncated before checkpoint region %d", i))
		}
		printCkptRegion("", i, img[off:off+layout.CkptRegionBytes()])
	}

	fmt.Println("segments:")
	for s := 0; s < layout.NumSegs; s++ {
		off := layout.SegOff(s)
		if off+int64(layout.SegBytes) > int64(len(img)) {
			fatal(fmt.Errorf("image truncated before segment %d", s))
		}
		body := img[off : off+int64(layout.SegBytes)]
		// A segment is a stack of chunks, walked from its trailer down.
		chunks, err := seg.Walk(layout, body)
		if errors.Is(err, seg.ErrRetiredFormat) {
			fmt.Printf("  seg %4d: retired (%v)\n", s, err)
			continue
		}
		if err != nil {
			if tr, terr := seg.DecodeTrailer(body); terr == nil {
				fmt.Printf("  seg %4d: seq %6d, %v\n", s, tr.Seq, err)
			}
			continue // never written or torn
		}
		var blocks, entries uint32
		var used int64
		for _, c := range chunks {
			blocks, entries, used = blocks+c.DataBlocks, entries+c.EntryCount, used+c.ImageBytes(layout)
		}
		first, last := chunks[0], chunks[len(chunks)-1]
		fmt.Printf("  seg %4d: %3d chunks, seq %6d-%-6d %4d data blocks, %5d entries, %7d B used (%.1f%% of the segment)\n",
			s, len(chunks), first.Seq, last.Seq, blocks, entries, used, 100*float64(used)/float64(layout.SegBytes))
		if s != *segIdx {
			continue
		}
		for k, c := range chunks {
			fmt.Printf("    chunk %d: seq %d at +%d..+%d, %d data blocks at +%d, %d entries (%d B)\n",
				k+1, c.Seq, c.Start, c.End, c.DataBlocks, c.DataOff, c.EntryCount, c.EntryBytes)
			entries, err := seg.DecodeEntriesFromSegment(body[:c.End], c.Trailer)
			if err != nil {
				fmt.Printf("    entry region corrupt: %v\n", err)
				continue
			}
			for i, e := range entries {
				if i >= *maxEnt {
					fmt.Printf("    … %d more\n", len(entries)-i)
					break
				}
				fmt.Printf("    %5d: %-12s aru=%-6d ts=%-8d block=%-6d list=%-6d pred=%-6d slot=%s\n",
					i, e.Kind, e.ARU, e.TS, e.Block, e.List, e.Pred, slotString(e))
			}
		}
	}
	if *tables {
		printTables(img)
	}
	if *stats {
		printStats(img)
	}
}

// slotString prints a write entry's slot as the place in the segment it
// names; an entry of another kind carries none.
func slotString(e seg.Entry) string {
	if e.Slot&seg.SlotSector != 0 {
		return fmt.Sprintf("+%d", seg.SlotOff(e.Slot))
	}
	return fmt.Sprint(e.Slot)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aru-inspect:", err)
	os.Exit(1)
}

// printCkptRegion dumps one checkpoint region as an incremental chain:
// the materialized head summary, then each record (base or delta) with
// its upsert and deletion counts. A region of a retired format is
// labelled so.
func printCkptRegion(indent string, i int, region []byte) {
	ch, err := seg.DecodeCkptChain(region)
	if errors.Is(err, seg.ErrRetiredFormat) {
		fmt.Printf("%scheckpoint %d: retired (%v)\n", indent, i, err)
		return
	}
	if err != nil {
		fmt.Printf("%scheckpoint %d: invalid (%v)\n", indent, i, err)
		return
	}
	head := ch.Head()
	ck := ch.Materialize()
	fmt.Printf("%scheckpoint %d: chain, head ts %d, depth %d, flushed seq %d, %d blocks, %d lists, next ts/block/list/aru %d/%d/%d/%d\n",
		indent, i, head.CkptTS, ch.Depth(), head.FlushedSeq, len(ck.Blocks), len(ck.Lists),
		head.NextTS, head.NextBlock, head.NextList, head.NextARU)
	for j, r := range ch.Recs {
		typ := "delta"
		if r.Base {
			typ = "base"
		}
		fmt.Printf("%s  rec %d: %-5s ts %-8d prev %-8d +%d/+%d upserts -%d/-%d deletions (blocks/lists, %d B)\n",
			indent, j, typ, r.CkptTS, r.PrevTS,
			len(r.Blocks), len(r.Lists), len(r.DelBlocks), len(r.DelLists), r.WireBytes())
	}
}

// inspectShardDir inspects a sharded image directory: per-shard
// superblocks and checkpoints, the coordinator log, and with -stats
// per-shard recovery span trees plus the merged statistics of the
// recovered sharded disk.
func inspectShardDir(dir string, tables, stats bool) {
	var imgs [][]byte
	for i := 0; ; i++ {
		img, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("shard%d.lld", i)))
		if err != nil {
			break
		}
		imgs = append(imgs, img)
	}
	if len(imgs) == 0 {
		fatal(fmt.Errorf("%s holds no shard images (shard0.lld …)", dir))
	}
	coordImg, err := os.ReadFile(filepath.Join(dir, "coord.lld"))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("sharded image: %d shards + coordinator log\n", len(imgs))

	for i, img := range imgs {
		layout, err := seg.DecodeSuper(img)
		if err != nil {
			fatal(fmt.Errorf("shard %d: %w", i, err))
		}
		fmt.Printf("shard %d: block %d B, segment %d KB, %d segments, max %d blocks / %d lists\n",
			i, layout.BlockSize, layout.SegBytes/1024, layout.NumSegs,
			layout.MaxBlocks, layout.MaxLists)
		for c := 0; c < 2; c++ {
			off := layout.CkptOff(c)
			printCkptRegion("  ", c, img[off:off+layout.CkptRegionBytes()])
		}
	}

	cs, err := shard.InspectCoordImage(coordImg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("coordinator log: formatted for %d shards, %d/%d record slots used\n",
		cs.Shards, len(cs.Records), cs.Slots)
	if cs.Shards != len(imgs) {
		fatal(fmt.Errorf("directory holds %d shard images but the coordinator log was formatted for %d", len(imgs), cs.Shards))
	}
	for _, txn := range cs.Records {
		fmt.Printf("  commit record: txn %d\n", txn)
	}
	committed := make(map[uint64]bool, len(cs.Records))
	for _, txn := range cs.Records {
		committed[txn] = true
	}

	if stats {
		// Per-shard recovery, each with its own tracer, resolving
		// in-doubt prepares against the coordinator log exactly as
		// multi-shard recovery would.
		for i, img := range imgs {
			tracer := aru.NewTracer(aru.TracerConfig{})
			dev := aru.NewMemDevice(int64(len(img))).Reopen(img)
			p := aru.Params{Tracer: tracer}
			p.CommitResolver = func(txn uint64) bool { return committed[txn] }
			_, rpt, err := aru.OpenReport(dev, p)
			if err != nil {
				fatal(fmt.Errorf("shard %d: %w", i, err))
			}
			fmt.Printf("shard %d recovery report: %+v\n", i, rpt)
			fmt.Printf("shard %d %s\n", i, recoveryPhases(rpt))
			fmt.Printf("shard %d ", i)
			printSpanTree(tracer.Spans())
		}
	}

	if tables || stats {
		// Full multi-shard recovery on in-memory copies: reconstructed
		// tables through the sharded surface and merged statistics.
		devs := make([]aru.Device, len(imgs))
		for i, img := range imgs {
			devs[i] = aru.NewMemDevice(int64(len(img))).Reopen(img)
		}
		coordDev := aru.NewMemDevice(int64(len(coordImg))).Reopen(coordImg)
		d, reps, err := aru.OpenShardedReport(devs, coordDev, aru.ShardOptions{})
		if err != nil {
			fatal(err)
		}
		for i, rep := range reps {
			fmt.Printf("multi-shard recovery, shard %d: %d entries replayed, %d in-doubt (%d committed, %d aborted), %d leaked freed\n",
				i, rep.EntriesReplayed, rep.InDoubt, rep.InDoubtCommitted, rep.InDoubtAborted, rep.LeakedFreed)
		}
		if tables {
			lists, err := d.Lists(aru.Simple)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("reconstructed tables: %d lists\n", len(lists))
			for _, l := range lists {
				blocks, err := d.ListBlocks(aru.Simple, l)
				if err != nil {
					fatal(err)
				}
				fmt.Printf("  list %5d (shard %d): %3d blocks", l, d.ShardOfList(l), len(blocks))
				if len(blocks) > 0 {
					max := len(blocks)
					trunc := ""
					if max > 12 {
						max = 12
						trunc = " …"
					}
					fmt.Printf("  %v%s", blocks[:max], trunc)
				}
				fmt.Println()
			}
		}
		if stats {
			st := d.ShardStats()
			fmt.Println("merged stats:")
			for _, c := range aru.StatsCounters(st.Engine) {
				fmt.Printf("  %-28s %d\n", c.Name, c.Value)
			}
			fmt.Printf("  %-28s %d\n", "fast_path_commits", st.FastPathCommits)
			fmt.Printf("  %-28s %d\n", "cross_shard_commits", st.CrossShardCommits)
			fmt.Printf("  %-28s %d\n", "cross_shard_aborts", st.CrossShardAborts)
			fmt.Printf("  %-28s %d\n", "coord_records", st.CoordRecords)
			for i, ps := range st.PerShard {
				fmt.Printf("  shard %d: %d writes, %d new blocks, %d ARUs committed (%d prepared), %d segments written\n",
					i, ps.Writes, ps.NewBlocks, ps.ARUsCommitted, ps.ARUsPrepared, ps.SegmentsWritten)
			}
		}
	}
}

// printTables recovers the image in memory and prints every list with
// its members, i.e. the reconstructed list-table and block-number-map
// as a client sees them.
func printTables(img []byte) {
	dev := aru.NewMemDevice(int64(len(img))).Reopen(img)
	d, err := aru.Open(dev, aru.Params{})
	if err != nil {
		fatal(err)
	}
	lists, err := d.Lists(aru.Simple)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("reconstructed tables: %d lists\n", len(lists))
	for _, l := range lists {
		blocks, err := d.ListBlocks(aru.Simple, l)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  list %5d: %3d blocks", l, len(blocks))
		if len(blocks) > 0 {
			max := len(blocks)
			trunc := ""
			if max > 12 {
				max = 12
				trunc = " …"
			}
			fmt.Printf("  %v%s", blocks[:max], trunc)
		}
		fmt.Println()
	}
}

// recoveryPhases says where a mount's time went: the three phases of the
// report, which add up to the whole mount.
func recoveryPhases(rpt aru.RecoveryReport) string {
	total := rpt.CkptLoad + rpt.Scan + rpt.Sweep
	pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(max(total, 1)) }
	return fmt.Sprintf("recovery phases: checkpoint load %v (%.0f%%), scan + replay %v (%.0f%%, %d entries of %d segments), sweep + publish %v (%.0f%%), mount %v",
		rpt.CkptLoad, pct(rpt.CkptLoad), rpt.Scan, pct(rpt.Scan), rpt.EntriesReplayed, rpt.SegmentsReplayed, rpt.Sweep, pct(rpt.Sweep), total)
}

// printStats recovers the image in memory with a tracer attached and
// prints the recovery report, the counter snapshot and the recovery's
// span tree.
func printStats(img []byte) {
	tracer := aru.NewTracer(aru.TracerConfig{})
	dev := aru.NewMemDevice(int64(len(img))).Reopen(img)
	d, rpt, err := aru.OpenReport(dev, aru.Params{Tracer: tracer})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("recovery report: %+v\n", rpt)
	fmt.Println(recoveryPhases(rpt))
	fmt.Println("stats:")
	for _, c := range aru.StatsCounters(d.Stats()) {
		fmt.Printf("  %-28s %d\n", c.Name, c.Value)
	}
	if hists := d.Metrics(); len(hists) > 0 {
		fmt.Println("latency:")
		for _, h := range hists {
			if h.Count == 0 {
				continue
			}
			fmt.Printf("  %s\n", h)
		}
	}
	printSpanTree(tracer.Spans())
}

// printSpanTree prints the spans a mount recorded as a forest: each
// span with its start, duration and arguments, children indented
// under their parent, siblings in start order.
func printSpanTree(spans []aru.Span) {
	fmt.Printf("recovery spans: %d\n", len(spans))
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	present := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		present[s.ID] = true
	}
	children := make(map[uint64][]aru.Span)
	for _, s := range spans {
		parent := s.Parent
		if !present[parent] {
			parent = 0 // a root, or its parent was not recorded
		}
		children[parent] = append(children[parent], s)
	}
	var walk func(parent uint64, depth int)
	walk = func(parent uint64, depth int) {
		for _, s := range children[parent] {
			fmt.Printf("  %12v %*s%-*s %12v aru=%-4d %d %d\n", s.Start, 2*depth, "", 20-2*depth, s.Kind, s.Dur, s.ARU, s.Arg1, s.Arg2)
			if s.ID != 0 { // an instant has no id and parents nothing
				walk(s.ID, depth+1)
			}
		}
	}
	walk(0, 0)
}
