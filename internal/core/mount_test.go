package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"aru/internal/alloctest"
	"aru/internal/disk"
	"aru/internal/seg"
)

// Mount folds the checkpoint chain straight into the tables and reads, of
// the replay window, only what it decodes (DESIGN.md §15). The referees
// here hold it to the two things that leaves room to get wrong: the fold
// against seg.CkptChain.Materialize, and the reads against the image.

// emptyWindow wipes the header of every chunk of img above flushed, so a
// mount of img finds nothing to replay and its state is the checkpoint's.
func emptyWindow(t *testing.T, l seg.Layout, img []byte, flushed uint64) {
	t.Helper()
	for s := 0; s < l.NumSegs; s++ {
		segment := img[l.SegOff(s):l.SegOff(s+1)]
		chunks, err := seg.Walk(l, segment)
		if err != nil {
			continue
		}
		for _, c := range chunks {
			if c.Seq > flushed {
				clear(segment[c.End-seg.SectorSize : c.End])
			}
		}
	}
}

// materializedState is what ck says a mount with nothing to replay holds:
// every list with its members' contents, read from img at the places the
// block records name, and the live blocks per segment.
func materializedState(t *testing.T, l seg.Layout, img []byte, ck seg.Checkpoint) (diskState, []int32) {
	t.Helper()
	blocks := make(map[BlockID]seg.BlockRec, len(ck.Blocks))
	live := make([]int32, l.NumSegs)
	for _, b := range ck.Blocks {
		blocks[b.ID] = b
		if b.HasData {
			live[b.Seg]++
		}
	}
	content := func(b seg.BlockRec) []byte {
		buf := make([]byte, l.BlockSize)
		if !b.HasData {
			return buf
		}
		copy(buf, img[l.SegOff(int(b.Seg))+int64(seg.SlotOff(b.Slot)):])
		return buf
	}
	state := make(diskState)
	for _, li := range ck.Lists {
		var contents [][]byte
		for cur := li.First; cur != NilBlock; cur = blocks[cur].Succ {
			b, ok := blocks[cur]
			if !ok || len(contents) > len(blocks) {
				t.Fatalf("checkpointed list %d is broken at block %d", li.ID, cur)
			}
			contents = append(contents, content(b))
		}
		state[li.ID] = contents
	}
	return state, live
}

// TestMountEqualsMaterialize: a mount with nothing to replay holds exactly
// what the chain's Materialize says — the lists, their members' contents
// and the live count of every segment — for chains real histories leave
// (deltas, compactions, deletions), for the image an earlier build wrote,
// and for a delta no engine writes: tables unsorted, an identifier
// repeated in one table, tombstones of identifiers the chain never held.
func TestMountEqualsMaterialize(t *testing.T) {
	check := func(name string, p Params, img []byte, wantDepth bool) {
		t.Helper()
		l := p.Layout
		chain := newestChain(t, img, l)
		if wantDepth && chain.Depth() == 0 {
			t.Fatalf("%s: the image holds no delta record", name)
		}
		emptyWindow(t, l, img, chain.Head().FlushedSeq)
		want, wantLive := materializedState(t, l, img, chain.Materialize())
		d, rpt, err := OpenReport(disk.FromImage(img, disk.Geometry{}), p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rpt.EntriesReplayed != 0 || rpt.SegmentsReplayed != 0 {
			t.Fatalf("%s: the emptied window replayed %d entries of %d segments", name, rpt.EntriesReplayed, rpt.SegmentsReplayed)
		}
		if got := logicalState(t, d); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: mounted %d lists, Materialize gives %d, or their contents differ", name, len(got), len(want))
		}
		for _, si := range d.Segments() {
			if si.Live != wantLive[si.Index] {
				t.Fatalf("%s: segment %d mounts with %d live blocks, Materialize gives %d", name, si.Index, si.Live, wantLive[si.Index])
			}
		}
		if err := d.VerifyInternal(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	for _, seed := range []int64{1, 2, 3, 7} {
		p := Params{Layout: testLayout(128), CheckpointEvery: -1, CkptCompactEvery: 4}
		dev := disk.NewMem(p.Layout.DiskBytes())
		d, err := Format(dev, p)
		if err != nil {
			t.Fatal(err)
		}
		chainHistory(t, seed, 24, d)
		check(fmt.Sprintf("history seed %d", seed), p, dev.Image(), false)
	}
	check("chunked fixture", fixtureParams(), loadFixture(t, chunkedFixturePath), true)

	// The hand-built delta, appended to the chain a short history left.
	p := Params{Layout: testLayout(32), CheckpointEvery: -1, CkptCompactEvery: 1 << 20}
	l := p.Layout
	dev := disk.NewMem(l.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	var doomed ListID
	var doomedBlocks []BlockID
	for li := 0; li < 3; li++ {
		lst, err := d.NewList(0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			b, err := d.NewBlock(0, lst, NilBlock)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Write(0, b, fill(d, byte(16*li+i+1))); err != nil {
				t.Fatal(err)
			}
			if li == 1 {
				doomed, doomedBlocks = lst, append(doomedBlocks, b)
			}
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	img := dev.Image()
	chain := newestChain(t, img, l)
	head := chain.Head()
	const newList, a, b, c = ListID(900), BlockID(903), BlockID(902), BlockID(901)
	delta := seg.CkptRec{
		CkptTS: head.CkptTS + 1, PrevTS: head.CkptTS,
		FlushedSeq: head.FlushedSeq, NextTS: head.NextTS + 10, NextARU: head.NextARU,
		NextBlock: 1000, NextList: 1000,
		// A new list a → b, highest identifier first; a's record comes twice
		// and the later one counts; c comes and goes in this one record.
		Blocks: []seg.BlockRec{
			{ID: a, List: newList, Succ: c, TS: head.NextTS},
			{ID: b, List: newList, TS: head.NextTS + 1},
			{ID: c, List: newList, Succ: b, TS: head.NextTS},
			{ID: a, List: newList, Succ: b, TS: head.NextTS + 2},
		},
		Lists:     []seg.ListRec{{ID: newList, First: a, Last: b, TS: head.NextTS + 2}},
		DelBlocks: append([]BlockID{77777, c}, doomedBlocks...),
		DelLists:  []ListID{88888, doomed},
	}
	buf, err := seg.EncodeCkptRec(l, delta)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		off := l.CkptOff(i)
		if ch, err := seg.DecodeCkptChain(img[off : off+l.CkptRegionBytes()]); err == nil && ch.Head().CkptTS == head.CkptTS {
			copy(img[off+chain.NextOff:], buf)
		}
	}
	if got := newestChain(t, img, l); got.Depth() != chain.Depth()+1 {
		t.Fatalf("the hand-built delta did not join the chain (depth %d, was %d)", got.Depth(), chain.Depth())
	}
	check("hand-built delta", p, img, true)
}

// readLog is a device that records what a mount reads of it.
type readLog struct {
	disk.Disk
	mu    sync.Mutex
	reads [][2]int64 // offset, length
}

func (r *readLog) ReadAt(p []byte, off int64) error {
	r.mu.Lock()
	r.reads = append(r.reads, [2]int64{off, int64(len(p))})
	r.mu.Unlock()
	return r.Disk.ReadAt(p, off)
}

// windowImage builds an image with a delta chain and, beyond it, a replay
// window of several segments whose straddler took chunks on both sides of
// the checkpoint.
func windowImage(t *testing.T, seed int64) (Params, []byte) {
	t.Helper()
	p := Params{Layout: testLayout(128), CheckpointEvery: -1, CkptCompactEvery: 4}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	chainHistory(t, seed, 16, d)
	lst, err := d.NewList(0)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []BlockID
	for i := 0; i < 24; i++ {
		b, err := d.NewBlock(0, lst, NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	for round := 0; round < 12; round++ {
		aru, err := d.BeginARU()
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range blocks {
			if (i+round)%3 == 0 {
				continue
			}
			if err := d.Write(aru, b, fill(d, byte(round+1))); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.EndARU(aru); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return p, dev.Image()
}

// windowChunk is one chunk of the replay window as the image holds it.
type windowChunk struct {
	seg.Chunk
	segIdx int
}

// imageChunks walks every segment of img in memory — the way mount used
// to, whole segment in hand — and returns the chunks above flushed in
// sequence order, and the spans of the log no mount has a reason to read:
// every chunk's data area, and the entry region of every chunk at or below
// flushed.
func imageChunks(t *testing.T, l seg.Layout, img []byte, flushed uint64) (window []windowChunk, inWindowSegs map[int]int, forbidden [][2]int64) {
	t.Helper()
	inWindowSegs = make(map[int]int)
	bySeq := make(map[uint64]windowChunk)
	var lo, hi uint64
	for s := 0; s < l.NumSegs; s++ {
		chunks, err := seg.Walk(l, img[l.SegOff(s):l.SegOff(s+1)])
		if err != nil {
			continue
		}
		for _, c := range chunks {
			base := l.SegOff(s)
			if c.DataBlocks > 0 {
				forbidden = append(forbidden, [2]int64{base + int64(c.DataOff), int64(c.DataBlocks) * int64(l.BlockSize)})
			}
			off, n := c.EntryRegion()
			if c.Seq <= flushed {
				if n > 0 {
					forbidden = append(forbidden, [2]int64{base + int64(off), int64(n)})
				}
				continue
			}
			bySeq[c.Seq] = windowChunk{c, s}
			inWindowSegs[s] = len(chunks)
			if lo == 0 || c.Seq < lo {
				lo = c.Seq
			}
			hi = max(hi, c.Seq)
		}
	}
	for seq := lo; seq != 0 && seq <= hi; seq++ {
		if c, ok := bySeq[seq]; ok {
			window = append(window, c)
		}
	}
	return window, inWindowSegs, forbidden
}

// TestMountReadsOnlySummaries: of the log, a mount reads the trailer of
// every segment, the header of every chunk of a window segment (and the
// sector below the last, where the walk ends) and the entry regions of the
// chunks above FlushedSeq — no byte of a data area, and of a straddler's
// chunks at or below FlushedSeq nothing but the header. A corrupt entry
// region inside the window and a hole in the sequence still cut the tail
// at the chunk an in-memory walk of the whole image cuts it at.
func TestMountReadsOnlySummaries(t *testing.T) {
	p, img := windowImage(t, 5)
	l := p.Layout
	flushed := newestChain(t, img, l).Head().FlushedSeq
	window, winSegs, forbidden := imageChunks(t, l, img, flushed)
	if len(winSegs) < 3 {
		t.Fatalf("the window spans %d segments, want several", len(winSegs))
	}
	straddled := false
	for s, n := range winSegs {
		inWindow := 0
		for _, c := range window {
			if c.segIdx == s {
				inWindow++
			}
		}
		straddled = straddled || inWindow < n
	}
	if !straddled {
		t.Fatal("no window segment holds a chunk at or below FlushedSeq: the test has no straddler")
	}

	mount := func(img []byte) (*LLD, RecoveryReport, *readLog) {
		t.Helper()
		dev := &readLog{Disk: disk.FromImage(img, disk.Geometry{})}
		d, rpt, err := OpenReport(dev, p)
		if err != nil {
			t.Fatal(err)
		}
		return d, rpt, dev
	}
	d, rpt, dev := mount(img)
	reads := dev.reads
	wantEntries := 0
	budget := int64(seg.SectorSize) // the superblock
	for i := 0; i < 2; i++ {
		off := l.CkptOff(i)
		if ch, err := seg.DecodeCkptChain(img[off : off+l.CkptRegionBytes()]); err == nil {
			budget += ch.NextOff
		}
		budget += seg.SectorSize // where the chain ends, or a region that holds none
	}
	budget += int64(l.NumSegs) * seg.SectorSize // the trailer scan
	for _, n := range winSegs {
		budget += int64(n+1) * seg.SectorSize // the walk: every header, and the sector that ends it
	}
	for _, c := range window {
		_, n := c.EntryRegion()
		budget += int64(n)
		wantEntries += int(c.EntryCount)
	}
	var total int64
	for _, r := range reads {
		total += r[1]
		for _, f := range forbidden {
			if r[0] < f[0]+f[1] && f[0] < r[0]+r[1] {
				t.Fatalf("mount read %d bytes at %d, inside [%d, +%d): a data area, or the entry region of a chunk the checkpoint covers", r[1], r[0], f[0], f[1])
			}
		}
	}
	if total > budget {
		t.Fatalf("mount read %d bytes, the summaries it decodes take %d", total, budget)
	}
	if rpt.EntriesReplayed != wantEntries || rpt.SegmentsReplayed != len(winSegs) {
		t.Fatalf("mount replayed %d entries of %d segments, the window holds %d of %d", rpt.EntriesReplayed, rpt.SegmentsReplayed, wantEntries, len(winSegs))
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
	t.Logf("mount read %d bytes in %d reads (budget %d) of a %d-byte image; window: %d chunks in %d segments", total, len(reads), budget, len(img), len(window), len(winSegs))

	// The cuts. inMemoryCut replays nothing: it counts what the contiguous
	// run of decodable chunks holds, with every segment whole in memory.
	inMemoryCut := func(img []byte) (entries int) {
		window, _, _ := imageChunks(t, l, img, flushed)
		expect := flushed + 1
		for _, c := range window {
			segment := img[l.SegOff(c.segIdx):l.SegOff(c.segIdx+1)]
			if _, err := seg.DecodeEntriesFromSegment(segment[:c.End], c.Trailer); c.Seq != expect || err != nil {
				break
			}
			expect++
			entries += int(c.EntryCount)
		}
		return entries
	}
	victim := window[len(window)/2]
	for _, tc := range []struct {
		name   string
		damage func(img []byte)
	}{
		{"corrupt entry region", func(img []byte) {
			off, _ := victim.EntryRegion()
			img[l.SegOff(victim.segIdx)+int64(off)+9] ^= 0x40
		}},
		{"sequence hole", func(img []byte) {
			base := l.SegOff(victim.segIdx)
			clear(img[base+int64(victim.End)-seg.SectorSize : base+int64(victim.End)])
		}},
	} {
		cut := bytes.Clone(img)
		tc.damage(cut)
		want := inMemoryCut(cut)
		if want == 0 || want >= wantEntries {
			t.Fatalf("%s: the in-memory walk replays %d of %d entries: the damage is not inside the window", tc.name, want, wantEntries)
		}
		d, rpt, dev := mount(cut)
		if rpt.EntriesReplayed != want {
			t.Fatalf("%s: mount replayed %d entries, the in-memory walk cuts at %d", tc.name, rpt.EntriesReplayed, want)
		}
		if err := d.VerifyInternal(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// The cut is sealed with a checkpoint, so the remount replays nothing
		// and reads the same state.
		state := logicalState(t, d)
		again, rpt2, err := OpenReport(disk.FromImage(dev.Disk.(*disk.Sim).Image(), disk.Geometry{}), p)
		if err != nil {
			t.Fatalf("%s: remount: %v", tc.name, err)
		}
		if rpt2.EntriesReplayed != 0 || !reflect.DeepEqual(logicalState(t, again), state) {
			t.Fatalf("%s: the remount replayed %d entries or reads another state", tc.name, rpt2.EntriesReplayed)
		}
	}
}

// TestAllocsMount budgets what one mount allocates: a fixed image of 4 096
// live blocks under a chain of depth 3, with a replay window of about 18
// segments — the shape of the benchmark's recovery workload. At the parent
// of the change that made mount fold the chain straight into the tables
// and read only the summaries, this image cost 8.22 MB and 21 108
// allocations per mount; the change brought it to 1.76 MB and 4 932.
func TestAllocsMount(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	l := seg.DefaultLayout(128)
	build := Params{Layout: l, CheckpointEvery: -1, CkptCompactEvery: 1 << 20}
	dev := disk.NewMem(l.DiskBytes())
	d, err := Format(dev, build)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, l.BlockSize)
	var blocks []BlockID
	for li := 0; li < 64; li++ {
		lst, err := d.NewList(0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			b, err := d.NewBlock(0, lst, NilBlock)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Write(0, b, buf); err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, b)
		}
	}
	units := func(n int) {
		t.Helper()
		for u := 0; u < n; u++ {
			aru, err := d.BeginARU()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				buf[0]++
				if err := d.Write(aru, blocks[(u*131+i*17)%len(blocks)], buf); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.EndARU(aru); err != nil {
				t.Fatal(err)
			}
			if (u+1)%24 == 0 {
				if err := d.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // three deltas on Format's base
		units(40)
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	units(760)
	// A mount whose window holds no cut writes nothing, so every mount can
	// be of the one device: no image copy inside the measurement.
	img := dev.Image()
	ro := disk.FromImage(img, disk.Geometry{})
	_, rpt, err := OpenReport(ro, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if rpt.DeltaChainDepth != 3 || rpt.SegmentsReplayed < 16 || rpt.SegmentsReplayed > 20 {
		t.Fatalf("the image mounts with chain depth %d and %d window segments, want 3 and about 18", rpt.DeltaChainDepth, rpt.SegmentsReplayed)
	}
	op := func() {
		if _, _, err := OpenReport(ro, Params{}); err != nil {
			t.Fatal(err)
		}
	}
	alloctest.CheckBytes(t, "mount", 2.5e6, 20, op)
	alloctest.Check(t, "mount", 7000, 20, op)
	if !bytes.Equal(ro.Image(), img) {
		t.Fatal("a mount wrote to the device: the mounts measured were not of the same image")
	}
}
