package core

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"

	"aru/internal/seg"
)

// TestMain is the leaked-snapshot detector for the core suite: a test
// that exits holding an exported Snapshot handle pins an epoch — and
// every buffer, trie node and sealed image that epoch retired — for
// the rest of the process, so it fails the whole run.
func TestMain(m *testing.M) {
	code := m.Run()
	if n := LiveSnapshots(); n != 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d snapshot handles leaked by the core test suite\n", n)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// commitFill commits one ARU overwriting every block with fill(d, v).
func commitFill(t *testing.T, d *LLD, blocks []BlockID, v byte) {
	t.Helper()
	a, err := d.BeginARU()
	if err != nil {
		t.Fatalf("BeginARU: %v", err)
	}
	for _, b := range blocks {
		if err := d.Write(a, b, fill(d, v)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := d.EndARU(a); err != nil {
		t.Fatalf("EndARU: %v", err)
	}
}

// snapChainLen counts the published epochs still alive, oldest epoch
// through head inclusive.
func snapChainLen(d *LLD) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	head := d.head.Load()
	n := 0
	for s := d.snapOldest; s != nil; s = s.next {
		n++
		if s == head {
			break
		}
	}
	return n
}

// TestSnapshotRefcountNeverNegative hammers acquire/release (including
// deliberate double-Releases) against live commit traffic. The
// internal release path panics the process if any refcount ever goes
// below zero, so finishing the test at all is the core assertion; the
// explicit checks cover handle accounting.
func TestSnapshotRefcountNeverNegative(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	defer d.Close()
	lst, _ := d.NewList(0)
	blocks := make([]BlockID, 4)
	for i := range blocks {
		blocks[i], _ = d.NewBlock(0, lst, NilBlock)
	}
	commitFill(t, d, blocks, 1)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := byte(2); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			commitFill(t, d, blocks, v)
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, d.BlockSize())
			for i := 0; i < 300; i++ {
				h, err := d.AcquireSnapshot()
				if err != nil {
					t.Errorf("AcquireSnapshot: %v", err)
					return
				}
				if err := h.Read(seg.SimpleARU, blocks[i%len(blocks)], buf); err != nil {
					t.Errorf("snapshot Read: %v", err)
				}
				h.Release()
				if i%7 == g%7 {
					h.Release() // double release must be a no-op
				}
			}
		}(g)
	}
	close(stop)
	wg.Wait()

	if n := d.OpenSnapshots(); n != 0 {
		t.Fatalf("OpenSnapshots = %d after all handles released", n)
	}
}

// TestSnapshotPinsEpochAcrossChurn acquires one snapshot and then
// drives the engine through overwrite commits, checkpoints and a
// cleaner pass. The pinned epoch must keep answering byte-for-byte as
// it did at acquisition, while the live engine moves on.
func TestSnapshotPinsEpochAcrossChurn(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	defer d.Close()
	lst, _ := d.NewList(0)
	blocks := make([]BlockID, 8)
	for i := range blocks {
		blocks[i], _ = d.NewBlock(0, lst, NilBlock)
		if err := d.Write(0, blocks[i], fill(d, byte(10+i))); err != nil {
			t.Fatalf("seed write: %v", err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	h, err := d.AcquireSnapshot()
	if err != nil {
		t.Fatalf("AcquireSnapshot: %v", err)
	}
	defer h.Release()
	want := make([][]byte, len(blocks))
	for i, b := range blocks {
		want[i] = make([]byte, d.BlockSize())
		if err := h.Read(seg.SimpleARU, b, want[i]); err != nil {
			t.Fatalf("initial snapshot read: %v", err)
		}
	}
	wantList, err := h.ListBlocks(seg.SimpleARU, lst)
	if err != nil {
		t.Fatalf("initial snapshot ListBlocks: %v", err)
	}

	// Churn: 24 overwrite commits, periodic checkpoints, one cleaner
	// pass in the middle.
	for round := byte(0); round < 24; round++ {
		commitFill(t, d, blocks, 100+round)
		if round%6 == 5 {
			if err := d.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
		if round == 12 {
			if _, err := d.Clean(d.params.Layout.NumSegs - 4); err != nil {
				t.Fatalf("Clean: %v", err)
			}
		}
	}

	buf := make([]byte, d.BlockSize())
	for i, b := range blocks {
		if err := h.Read(seg.SimpleARU, b, buf); err != nil {
			t.Fatalf("pinned read after churn: %v", err)
		}
		if !bytes.Equal(buf, want[i]) {
			t.Fatalf("block %d: pinned snapshot drifted after churn", b)
		}
	}
	gotList, err := h.ListBlocks(seg.SimpleARU, lst)
	if err != nil {
		t.Fatalf("pinned ListBlocks after churn: %v", err)
	}
	if fmt.Sprint(gotList) != fmt.Sprint(wantList) {
		t.Fatalf("pinned list order drifted: %v, want %v", gotList, wantList)
	}
	// The live engine must have moved on.
	if err := d.Read(0, blocks[0], buf); err != nil {
		t.Fatalf("live read: %v", err)
	}
	if bytes.Equal(buf, want[0]) {
		t.Fatal("live engine still serves the pinned epoch's data after 24 overwrites")
	}
	// The handle's counters stay the pinned epoch's, except the live
	// ones, which it overlays as LLD.Stats does.
	if hs, ds := h.Stats(), d.Stats(); hs.ARUsCommitted+24 != ds.ARUsCommitted ||
		hs.Reads != ds.Reads || hs.Reads < int64(2*len(blocks)) {
		t.Fatalf("handle counts %d commits and %d reads, the engine %d and %d",
			hs.ARUsCommitted, hs.Reads, ds.ARUsCommitted, ds.Reads)
	}
}

// TestPurgeFreesExactlyDrainedEpochs checks the purge accounting
// identity — every published epoch is either purged or still on the
// oldest..head chain — and that a pinned epoch stops the oldest-first
// sweep without letting younger drained epochs leak past it.
func TestPurgeFreesExactlyDrainedEpochs(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	defer d.Close()
	lst, _ := d.NewList(0)
	blocks := make([]BlockID, 4)
	for i := range blocks {
		blocks[i], _ = d.NewBlock(0, lst, NilBlock)
	}
	commitFill(t, d, blocks, 1)

	ident := func(where string) {
		st := lockedStats(d)
		pub, purged := st.EpochsPublished, st.SnapshotsPurged
		if chain := int64(snapChainLen(d)); pub-purged != chain {
			t.Fatalf("%s: published %d - purged %d != live chain %d", where, pub, purged, chain)
		}
	}
	ident("before pin")

	h, err := d.AcquireSnapshot()
	if err != nil {
		t.Fatalf("AcquireSnapshot: %v", err)
	}
	pinned := h.Epoch()
	for v := byte(2); v < 12; v++ {
		commitFill(t, d, blocks, v)
	}
	ident("while pinned")
	d.mu.Lock()
	oldest := d.snapOldest.epoch
	d.mu.Unlock()
	if oldest > pinned {
		t.Fatalf("oldest live epoch %d passed pinned epoch %d", oldest, pinned)
	}
	if snapChainLen(d) < 3 {
		t.Fatalf("chain length %d: younger epochs should be retained behind the pin", snapChainLen(d))
	}
	if lockedStats(d).PurgeRetries == 0 {
		t.Fatal("no purge retries recorded while an epoch was pinned")
	}

	h.Release()
	commitFill(t, d, blocks, 99) // publish + purge
	ident("after release")
	d.mu.Lock()
	drained := d.snapOldest == d.head.Load()
	d.mu.Unlock()
	if !drained {
		t.Fatal("retired epochs not fully drained after release + publish")
	}
}

// TestSnapshotSurvivesFreeListPoisoning is the poisoning variant of
// the pin test: buffers recycle into d.freeBufs only when the epoch
// that retired them drains, so nothing on the free list may ever be
// reachable from a live snapshot. The test scribbles over the entire
// free list after every round of churn; if purge ever recycled a
// buffer early, the pinned snapshot would read the poison pattern.
func TestSnapshotSurvivesFreeListPoisoning(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	defer d.Close()
	lst, _ := d.NewList(0)
	blocks := make([]BlockID, 6)
	for i := range blocks {
		blocks[i], _ = d.NewBlock(0, lst, NilBlock)
	}
	commitFill(t, d, blocks, 1)

	// Pin an early epoch, churn behind it, then hand the pin over to a
	// later epoch and release the early one: the sweep drains every
	// epoch older than the survivor, so their retired buffers reach the
	// free list while the survivor's data must stay untouched.
	commitFill(t, d, blocks, 2)
	h1, err := d.AcquireSnapshot()
	if err != nil {
		t.Fatalf("AcquireSnapshot: %v", err)
	}
	for v := byte(3); v <= 10; v++ {
		commitFill(t, d, blocks, v)
	}
	h, err := d.AcquireSnapshot()
	if err != nil {
		t.Fatalf("AcquireSnapshot: %v", err)
	}
	defer h.Release()
	h1.Release()

	maxFree := 0
	for v := byte(11); v < 40; v++ {
		commitFill(t, d, blocks, v)
		if n := poisonFreeBufs(d); n > maxFree {
			maxFree = n
		}
		if v == 20 {
			if err := d.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	if maxFree == 0 {
		t.Fatal("free list never populated; poisoning test has no teeth")
	}

	buf := make([]byte, d.BlockSize())
	for _, b := range blocks {
		if err := h.Read(seg.SimpleARU, b, buf); err != nil {
			t.Fatalf("pinned read: %v", err)
		}
		if !bytes.Equal(buf, fill(d, 10)) {
			if buf[0] == 0xDB {
				t.Fatalf("block %d: pinned snapshot served a recycled (poisoned) buffer", b)
			}
			t.Fatalf("block %d: pinned snapshot drifted", b)
		}
	}
	// The live engine must also be unaffected: getBuf contents are
	// undefined and every writer overwrites the full block.
	if err := d.Read(0, blocks[0], buf); err != nil {
		t.Fatalf("live read: %v", err)
	}
	if !bytes.Equal(buf, fill(d, 39)) {
		t.Fatalf("live engine corrupted by free-list poisoning")
	}
}

// TestSnapshotPinsItsOpenBuilder pins a snapshot while builder B holds the
// open segment, then drives B's segment into retirement and many more
// builders through the log — cleaner batches included, whose builders no
// publish ever names and which go straight back to the pool. Every block
// the pinned epoch reads out of B must keep its bytes, and B must not be
// pooled until the pin is released and the purge has run.
func TestSnapshotPinsItsOpenBuilder(t *testing.T) {
	// Nothing freed behind the pin is reused until it is released: the
	// disk must hold the whole run.
	d, _ := newTestLLD(t, Params{Layout: testLayout(256)})
	defer d.Close()
	lst, _ := d.NewList(0)
	// Cold blocks, one in three overwritten once: the cleaner's victims.
	cold := make([]BlockID, 60)
	for i := range cold {
		cold[i], _ = d.NewBlock(0, lst, NilBlock)
		if err := d.Write(0, cold[i], fill(d, 1)); err != nil {
			t.Fatalf("cold write: %v", err)
		}
	}
	for i := 0; i < len(cold); i += 3 {
		if err := d.Write(0, cold[i], fill(d, 2)); err != nil {
			t.Fatalf("cold overwrite: %v", err)
		}
	}
	blocks := make([]BlockID, 24)
	for i := range blocks {
		blocks[i], _ = d.NewBlock(0, lst, NilBlock)
		if err := d.Write(0, blocks[i], fill(d, byte(10+i))); err != nil {
			t.Fatalf("seed write: %v", err)
		}
	}
	// Flush until the open segment holds some of them: a seal that fills
	// the segment retires it.
	var inB []int
	for k := 0; len(inB) == 0; k++ {
		if k > 0 {
			if err := d.Write(0, blocks[k], fill(d, byte(10+k))); err != nil {
				t.Fatalf("rewrite: %v", err)
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		d.mu.Lock()
		for i, id := range blocks {
			if lf := pmapGet(d.blockTab.root, uint64(id)); lf.hasPersist && int(lf.persist.Seg) == d.curSeg {
				inB = append(inB, i)
			}
		}
		d.mu.Unlock()
	}
	h, err := d.AcquireSnapshot()
	if err != nil {
		t.Fatalf("AcquireSnapshot: %v", err)
	}
	defer h.Release()
	d.mu.Lock()
	b := d.builder
	d.mu.Unlock()
	if h.s.curBld != b {
		t.Fatalf("setup: the pinned epoch opens builder %p, not the open one (%p)", h.s.curBld, b)
	}
	pooled := func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return slices.Contains(d.spareBuilders.items, b)
	}

	// Overwrite everything, many times over: B's segment retires, its
	// blocks die, and the cleaner runs batches on the wrapped log.
	retired := lockedStats(d).SegmentsWritten
	for round := 0; round < 40; round++ {
		commitFill(t, d, blocks, byte(100+round))
		if err := d.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if round%10 == 9 {
			if _, err := d.Clean(d.params.Layout.NumSegs); err != nil {
				t.Fatalf("Clean: %v", err)
			}
		}
		if pooled() {
			t.Fatalf("round %d: the pinned epoch's open builder is a spare", round)
		}
	}
	st := lockedStats(d)
	if n, c := st.SegmentsWritten-retired, st.SegmentsCleaned; n < 16 || c == 0 {
		t.Fatalf("behind the pin %d segments were written and %d cleaned", n, c)
	}
	d.mu.Lock()
	open := d.builder
	d.mu.Unlock()
	if open == b {
		t.Fatal("the pinned builder is the open one again")
	}
	buf := make([]byte, d.BlockSize())
	for _, i := range inB {
		if err := h.Read(seg.SimpleARU, blocks[i], buf); err != nil {
			t.Fatalf("pinned read of block %d: %v", blocks[i], err)
		}
		if !bytes.Equal(buf, fill(d, byte(10+i))) {
			t.Fatalf("block %d: the pinned epoch read %#x from its builder, want %#x", blocks[i], buf[0], 10+i)
		}
	}

	// Released and purged, B is pooled; the pool is emptied first so that
	// the cap cannot drop it.
	d.mu.Lock()
	d.spareBuilders.items = d.spareBuilders.items[:0]
	d.mu.Unlock()
	h.Release()
	commitFill(t, d, blocks, 1) // publish + purge
	d.mu.Lock()
	reused := d.builder == b
	d.mu.Unlock()
	if !pooled() && !reused {
		t.Fatal("the pinned builder was not pooled once its epoch drained")
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestUnpublishedBuilderPooledAtOnce runs a cleaner batch by hand, under
// one d.mu hold and with no publish, over victims holding more than two
// segments' worth of live blocks. The builder open at the last publish is
// named by the head and waits in the retire-set; every builder taken and
// retired inside the batch goes straight back to the pool.
func TestUnpublishedBuilderPooledAtOnce(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	defer d.Close()
	lst, _ := d.NewList(0)
	blocks := make([]BlockID, 80)
	for i := range blocks {
		blocks[i], _ = d.NewBlock(0, lst, NilBlock)
		if err := d.Write(0, blocks[i], fill(d, byte(i))); err != nil {
			t.Fatalf("seed write: %v", err)
		}
	}
	// Kill one block in four, so the victims are not full, and checkpoint
	// so that they are cleanable.
	for i := 0; i < len(blocks); i += 4 {
		if err := d.Write(0, blocks[i], fill(d, 0xEE)); err != nil {
			t.Fatalf("overwrite: %v", err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	d.mu.Lock()
	first, epoch, retiredBefore := d.builder, d.epoch, d.segsSinceC
	visited := map[int]bool{}
	var taken []*seg.Builder
	for d.segsSinceC-retiredBefore < 3 {
		victim, ok := d.pickVictim(visited)
		if !ok {
			d.mu.Unlock()
			t.Fatalf("no victim left after %d retirements", d.segsSinceC-retiredBefore)
		}
		visited[victim] = true
		if err := d.relocateSegment(victim); err != nil {
			d.mu.Unlock()
			t.Fatalf("relocating segment %d: %v", victim, err)
		}
		if !slices.Contains(taken, d.builder) && d.builder != first {
			taken = append(taken, d.builder)
		}
	}
	if d.epoch != epoch {
		d.mu.Unlock()
		t.Fatal("the batch published")
	}
	inRet := slices.Clone(d.ret.builders)
	spares := slices.Clone(d.spareBuilders.items)
	open := d.builder
	d.mu.Unlock()

	if !slices.Contains(inRet, first) {
		t.Error("the builder the head names did not wait in the retire-set")
	}
	for _, b := range taken {
		if slices.Contains(inRet, b) {
			t.Errorf("builder %p, taken and retired inside the batch, waits in the retire-set", b)
		}
		if b != open && !slices.Contains(spares, b) {
			t.Errorf("builder %p, taken and retired inside the batch, was not pooled", b)
		}
	}
	if len(inRet) != 1 {
		t.Errorf("the retire-set holds %d builders, want only the one the head names", len(inRet))
	}
	d.mu.Lock()
	d.publishLocked()
	d.mu.Unlock()
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}
