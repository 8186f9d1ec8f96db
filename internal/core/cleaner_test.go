package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"aru/internal/disk"
	"aru/internal/seg"
)

// fillDisk creates lists of written blocks until about frac of the log
// segments have been consumed, returning the payload oracle.
func fillDisk(t *testing.T, d *LLD, frac float64) map[BlockID]byte {
	t.Helper()
	oracle := make(map[BlockID]byte)
	target := int64(float64(d.params.Layout.NumSegs) * frac)
	i := 0
	for d.Stats().SegmentsWritten < target {
		lst, err := d.NewList(0)
		if err != nil {
			t.Fatal(err)
		}
		pred := NilBlock
		for j := 0; j < 6; j++ {
			b, err := d.NewBlock(0, lst, pred)
			if err != nil {
				t.Fatal(err)
			}
			pat := byte(37*i + j + 1)
			if err := d.Write(0, b, fill(d, pat)); err != nil {
				t.Fatal(err)
			}
			oracle[b] = pat
			pred = b
		}
		i++
		if i%16 == 0 {
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	return oracle
}

// deleteSome removes every second list's blocks, creating dead space.
func deleteSome(t *testing.T, d *LLD, oracle map[BlockID]byte) {
	t.Helper()
	lists, err := d.Lists(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range lists {
		if i%2 != 0 {
			continue
		}
		blocks, err := d.ListBlocks(0, l)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.DeleteList(0, l); err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			delete(oracle, b)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
}

// verifyOracle checks every surviving block's contents.
func verifyOracle(t *testing.T, d *LLD, oracle map[BlockID]byte, when string) {
	t.Helper()
	buf := make([]byte, d.BlockSize())
	for b, pat := range oracle {
		if err := d.Read(0, b, buf); err != nil {
			t.Fatalf("%s: block %d: %v", when, b, err)
		}
		if !bytes.Equal(buf, fill(d, pat)) {
			t.Fatalf("%s: block %d holds %#x, want %#x", when, b, buf[0], pat)
		}
	}
}

// TestCleanerReclaimsAndPreserves: cleaning a disk filled to each fraction
// of the table, then half emptied, frees segments, relocates live blocks and
// keeps every block's contents, also across a reopen. A case is named by
// its index in the table.
func TestCleanerReclaimsAndPreserves(t *testing.T) {
	for i, full := range []float64{0.6} {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			p := Params{Layout: testLayout(64)}
			dev := disk.NewMem(p.Layout.DiskBytes())
			d, err := Format(dev, p)
			if err != nil {
				t.Fatal(err)
			}
			oracle := fillDisk(t, d, full)
			deleteSome(t, d, oracle)
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}

			relocBefore := d.Stats().BlocksRelocated
			cleaned, err := d.Clean(p.Layout.NumSegs - 4)
			if err != nil {
				t.Fatal(err)
			}
			if cleaned == 0 {
				t.Fatalf("cleaner reclaimed nothing despite half-dead segments")
			}
			if d.Stats().BlocksRelocated == relocBefore {
				t.Fatalf("cleaner freed segments without relocating anything?")
			}
			verifyOracle(t, d, oracle, "after cleaning")
			if err := d.VerifyInternal(); err != nil {
				t.Fatal(err)
			}

			// And the moved data must survive recovery.
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d2, err := Open(dev, Params{})
			if err != nil {
				t.Fatal(err)
			}
			verifyOracle(t, d2, oracle, "after cleaning + reopen")
			if err := d2.VerifyInternal(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVictimOrder: one cleaner round takes its victims fewest live blocks
// first, the lower segment index first among equals, and passes over a
// segment that cleanable refuses (a block in it has a pending committed
// version), however few live blocks it holds.
func TestVictimOrder(t *testing.T) {
	d, _ := newTestLLD(t, Params{Layout: seg.DefaultLayout(32), CheckpointEvery: -1, CleanerLowWater: -1})
	lst, err := d.NewList(0)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []BlockID
	pred := NilBlock
	for i := 0; i < 6*d.params.Layout.BlocksPerSeg(); i++ {
		b, err := d.NewBlock(0, lst, pred)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(0, b, fill(d, byte(i))); err != nil {
			t.Fatal(err)
		}
		blocks, pred = append(blocks, b), b
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	bySeg := map[int][]BlockID{}
	var segs []int
	d.mu.Lock()
	for _, b := range blocks {
		rec, _ := viewRec(d.blockTab.root, uint64(b), seg.SimpleARU)
		if s := int(rec.Seg); s != d.curSeg {
			if bySeg[s] == nil {
				segs = append(segs, s)
			}
			bySeg[s] = append(bySeg[s], b)
		}
	}
	d.mu.Unlock()
	slices.Sort(segs)
	if len(segs) < 5 {
		t.Fatalf("blocks fill %d retired segments, want 5", len(segs))
	}
	// Live blocks left in the five lowest segments: the refused one has
	// the fewest, and two hold the same count.
	keep, refused := []int{4, 3, 1, 3, 2}, segs[2]
	want := []int{segs[4], segs[1], segs[3], segs[0]}
	for i, s := range segs {
		n := 0
		if i < len(keep) {
			n = keep[i]
		}
		for _, b := range bySeg[s][n:] {
			if err := d.DeleteBlock(0, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(0, bySeg[refused][0], fill(d, 0xEE)); err != nil {
		t.Fatal(err)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	for i, s := range segs[:len(keep)] {
		if int(d.segLive[s]) != keep[i] {
			t.Fatalf("segment %d holds %d live blocks, want %d", s, d.segLive[s], keep[i])
		}
	}
	if d.cleanable(refused) {
		t.Fatalf("segment %d, holding a block with a pending version, is cleanable", refused)
	}
	d.pubSafe = true
	n, err := d.relocateBatch()
	d.pubSafe = false
	if err != nil || n != len(want) {
		t.Fatalf("relocateBatch = %d, %v; want %d victims", n, err, len(want))
	}
	// Relocation stamps each block with a fresh tick, so the order of the
	// victims' first ticks is the order they were taken in.
	first := map[int]uint64{}
	for i, s := range segs[:len(keep)] {
		if s == refused {
			continue
		}
		for _, b := range bySeg[s][:keep[i]] {
			rec, _ := viewRec(d.blockTab.root, uint64(b), seg.SimpleARU)
			if int(rec.Seg) != d.curSeg {
				t.Fatalf("block %d of victim %d is in segment %d, not the head %d", b, s, rec.Seg, d.curSeg)
			}
			if ts, ok := first[s]; !ok || rec.TS < ts {
				first[s] = rec.TS
			}
		}
	}
	got := slices.Clone(want)
	slices.SortFunc(got, func(a, b int) int { return cmp.Compare(first[a], first[b]) })
	if !slices.Equal(got, want) {
		t.Errorf("victims taken in order %v, want %v", got, want)
	}
	if d.cleanVisited[refused] || d.segLive[refused] != 1 {
		t.Errorf("refused segment %d was relocated (visited %v, %d live)", refused, d.cleanVisited[refused], d.segLive[refused])
	}
}

// TestCleanerRunsAutomatically fills and churns a small disk well past
// its raw capacity; automatic cleaning must keep it usable.
func TestCleanerRunsAutomatically(t *testing.T) {
	p := Params{Layout: testLayout(48), CheckpointEvery: 8, CleanerLowWater: 6}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	// Each round writes ~2 segments of fresh data and then deletes
	// most — but not all — of the previous round, leaving every old
	// segment partially live. Reclaiming that space requires actual
	// relocation, not just reuse of fully-dead segments.
	type round struct {
		blocks []BlockID
		pat    byte
	}
	var prev *round
	var survivors []round
	for r := 0; r < 60; r++ {
		lst, err := d.NewList(0)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		cur := &round{pat: byte(r + 1)}
		pred := NilBlock
		for j := 0; j < 12; j++ {
			b, err := d.NewBlock(0, lst, pred)
			if err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			if err := d.Write(0, b, fill(d, cur.pat)); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			cur.blocks = append(cur.blocks, b)
			pred = b
		}
		if prev != nil {
			// Keep the first two blocks of the previous round alive.
			for _, b := range prev.blocks[2:] {
				if err := d.DeleteBlock(0, b); err != nil {
					t.Fatalf("round %d: delete: %v", r, err)
				}
			}
			survivors = append(survivors, round{blocks: prev.blocks[:2], pat: prev.pat})
		}
		prev = cur
		if err := d.Flush(); err != nil {
			t.Fatalf("round %d: flush: %v", r, err)
		}
	}
	if d.Stats().SegmentsCleaned == 0 {
		t.Fatalf("automatic cleaning never ran (wrote %d segments on a %d-segment disk)",
			d.Stats().SegmentsWritten, p.Layout.NumSegs)
	}
	buf := make([]byte, d.BlockSize())
	for _, s := range survivors {
		for _, b := range s.blocks {
			if err := d.Read(0, b, buf); err != nil {
				t.Fatalf("survivor %d: %v", b, err)
			}
			if buf[0] != s.pat {
				t.Fatalf("survivor %d holds %#x, want %#x", b, buf[0], s.pat)
			}
		}
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestNoSpace verifies the documented failure mode when the log truly
// fills with live data.
func TestNoSpace(t *testing.T) {
	p := Params{Layout: testLayout(12), CleanerLowWater: 2}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	lst, _ := d.NewList(0)
	pred := NilBlock
	var firstErr error
	for i := 0; i < 12*8; i++ {
		b, err := d.NewBlock(0, lst, pred)
		if err != nil {
			firstErr = err
			break
		}
		if err := d.Write(0, b, fill(d, byte(i))); err != nil {
			firstErr = err
			break
		}
		pred = b
	}
	if !errors.Is(firstErr, ErrNoSpace) {
		t.Fatalf("filling the disk with live data: %v, want ErrNoSpace", firstErr)
	}
}

// TestCleanerEquivalence: cleaning must never change the visible state.
func TestCleanerEquivalence(t *testing.T) {
	p := Params{Layout: testLayout(64)}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	oracle := fillDisk(t, d, 0.5)
	deleteSome(t, d, oracle)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := logicalState(t, d)
	if _, err := d.Clean(48); err != nil {
		t.Fatal(err)
	}
	after := logicalState(t, d)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("cleaning changed the logical state")
	}
}

// TestCleanWithSnapshotHeld: a victim freed while a snapshot pins an
// older epoch stays gated until the release, so it is no progress. A
// cleaner that counted it would relocate into the last reusable segments
// and run the log out of space.
func TestCleanWithSnapshotHeld(t *testing.T) {
	p := Params{Layout: seg.DefaultLayout(32), CheckpointEvery: -1, CleanerLowWater: -1}
	d, _ := newTestLLD(t, p)
	lst, err := d.NewList(0)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]BlockID, 2000)
	pred := NilBlock
	for i := range blocks {
		if blocks[i], err = d.NewBlock(0, lst, pred); err != nil {
			t.Fatal(err)
		}
		pred = blocks[i]
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1200; i++ {
		if err := d.Write(0, blocks[rng.Intn(len(blocks))], fill(d, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, err := d.AcquireSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	for i := 0; i < 3; i++ {
		if _, err := d.Clean(d.FreeSegments() + 3); err != nil {
			t.Fatalf("Clean %d with a snapshot held: %v", i+1, err)
		}
		if err := d.VerifyInternal(); err != nil {
			t.Fatalf("after Clean %d: %v", i+1, err)
		}
	}
	// Released, the held-back victims take the next writes: more than the
	// segments that stayed reusable behind the pin hold, overwriting a
	// tenth of the blocks so that there is garbage to clean again.
	snap.Release()
	for i := 0; i < 600; i++ {
		if err := d.Write(0, blocks[rng.Intn(len(blocks)/10)], fill(d, byte(i))); err != nil {
			t.Fatalf("overwrite %d after the release: %v", i, err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// About eight segments' worth of blocks is live: two more free
	// segments are in reach.
	target := d.FreeSegments() + 2
	if _, err := d.Clean(target); err != nil {
		t.Fatalf("Clean after the release: %v", err)
	}
	if free := d.FreeSegments(); free < target {
		t.Fatalf("Clean after the release reached %d free segments, want %d", free, target)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestMaintainCleansToMark pins the cleaner's stopping rule: maintenance
// starts below the low-water mark and stops once the mark is restored.
// On churn's log — 64 segments, 68 % full with lists of 100 blocks, units
// of three uniform overwrites — the free count after warm-up never again
// reaches twice the mark, and never falls below the mark by more than one
// round writes: eight greedy victims, each no fuller than the log.
func TestMaintainCleansToMark(t *testing.T) {
	d, _ := newTestLLD(t, Params{Layout: seg.DefaultLayout(64)})
	defer d.Close()
	mark := d.params.CleanerLowWater
	rng := rand.New(rand.NewSource(7))
	var blocks []BlockID
	for i := 0; i < 56; i++ {
		lst, err := d.NewList(0)
		if err != nil {
			t.Fatal(err)
		}
		pred := NilBlock
		for j := 0; j < 100; j++ {
			b, err := d.NewBlock(0, lst, pred)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Write(0, b, fill(d, byte(j))); err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, b)
			pred = b
		}
	}
	perSeg := d.params.Layout.BlocksPerSeg()
	roundSegs := (8*len(blocks) + d.params.Layout.NumSegs*perSeg - 1) / (d.params.Layout.NumSegs * perSeg)
	lo, hi := d.params.Layout.NumSegs, 0
	for u := 0; u < 12000; u++ {
		a, err := d.BeginARU()
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			if err := d.Write(a, blocks[rng.Intn(len(blocks))], fill(d, byte(u))); err != nil {
				t.Fatalf("unit %d: %v", u, err)
			}
		}
		if err := d.EndARU(a); err != nil {
			t.Fatalf("unit %d: %v", u, err)
		}
		if u%256 == 255 {
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if u < 4000 {
			continue // warm-up: the cleaner's first cycles over the log
		}
		free := d.FreeSegments()
		lo, hi = min(lo, free), max(hi, free)
	}
	st := d.Stats()
	t.Logf("free segments %d..%d (mark %d, one round writes at most %d); %d segments cleaned, %.2f relocated per user block",
		lo, hi, mark, roundSegs, st.SegmentsCleaned, float64(st.BlocksRelocated)/float64(st.Writes))
	if st.SegmentsCleaned < int64(d.params.Layout.NumSegs) {
		t.Fatalf("only %d segments cleaned: the history never cycled the log", st.SegmentsCleaned)
	}
	if hi >= 2*mark {
		t.Errorf("free segments reached %d after warm-up: the cleaner cleans past the mark %d", hi, mark)
	}
	if lo < mark-roundSegs {
		t.Errorf("free segments fell to %d, below the mark %d minus one round's %d", lo, mark, roundSegs)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}
