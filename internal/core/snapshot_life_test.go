package core

import (
	"bytes"
	"fmt"
	"os"
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
		pub := d.stats.EpochsPublished.Load()
		purged := d.stats.SnapshotsPurged.Load()
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
	if d.stats.PurgeRetries.Load() == 0 {
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
