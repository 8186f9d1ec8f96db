package core

import (
	"strings"
	"testing"

	"aru/internal/seg"
)

// TestVerifyInternalCatchesCorruption tests the checker itself: with a
// pinned shadow version and a buffered committed version in the tables,
// each planted inconsistency — a pin count, a same-state chain, a gauge,
// an entry counter, the committed-buffer count, a buffer with two
// owners, a queued chunk the checkpoint already covers, a segment read as
// another sequence number than its newest chunk on the device carries, a
// block read from a place that is no data slot of its segment's chunks,
// the open builder pooled, a builder pooled twice, the head snapshot
// pooled, a pooled snapshot holding a retire-set, a free list past its
// cap — must fail
// VerifyInternal, and undoing it must pass again.
func TestVerifyInternalCatchesCorruption(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	defer d.Close()
	lst, _ := d.NewList(0)
	b1, _ := d.NewBlock(0, lst, NilBlock)
	readOnce(t, d, b1)
	b2, _ := d.NewBlock(0, lst, b1)
	if err := d.Write(0, b1, fill(d, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	// The flush left the segment open for more chunks; retire it, so that
	// b1 is read from the device and the device check covers it.
	retireOpenSegment(t, d)
	a, err := d.BeginARU()
	if err != nil {
		t.Fatal(err)
	}
	// Unlinking b1 inside the ARU copies its persistent record — data
	// location included — into a shadow version, which pins the segment.
	if err := d.MoveBlock(a, b1, lst, b2); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(0, b2, fill(d, 2)); err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	st := d.arus[a]
	pinned := -1
	for s, n := range d.segPins {
		if n > 0 {
			pinned = s
		}
	}
	if pinned < 0 || len(st.shadowBlocks) == 0 || len(d.commBlocks) == 0 {
		t.Fatalf("setup has no pin (%d), shadow chain (%v) or committed chain (%v)", pinned, st.shadowBlocks, d.commBlocks)
	}
	// The flush above handed b1's buffer to the cache.
	var cachedBuf []byte
	for i := range d.cache.slots {
		if e := d.cache.slots[i].Load(); e != nil {
			cachedBuf = e.data
		}
	}
	if cachedBuf == nil {
		t.Fatal("setup left no cache entry")
	}

	for _, c := range []struct {
		name, want  string
		plant, undo func()
	}{
		{"leaked pin", "pin count",
			func() { d.segPins[pinned]++ }, func() { d.segPins[pinned]-- }},
		{"dropped pin", "pin count",
			func() { d.segPins[pinned]-- }, func() { d.segPins[pinned]++ }},
		{"version missing from the committed chain", "same-state chains",
			func() { d.commBlocks = d.commBlocks[:len(d.commBlocks)-1] },
			func() { d.commBlocks = d.commBlocks[:len(d.commBlocks)+1] }},
		{"version twice on the shadow chain", "same-state chains",
			func() { st.shadowBlocks = append(st.shadowBlocks, st.shadowBlocks[0]) },
			func() { st.shadowBlocks = st.shadowBlocks[:len(st.shadowBlocks)-1] }},
		{"chain names a version that does not exist", "do not exist",
			func() { d.commLists = append(d.commLists, 4000) },
			func() { d.commLists = d.commLists[:len(d.commLists)-1] }},
		{"touched list names an ungated version", "not gated",
			func() { st.touched = append(st.touched, b2) },
			func() { st.touched = st.touched[:0] }},
		{"gauge drift", "gauges",
			func() { d.stats.AltRecords++ }, func() { d.stats.AltRecords-- }},
		{"entry counter drift", "entry counters",
			func() { d.blockTab.n++ }, func() { d.blockTab.n-- }},
		{"committed-buffer drift", "committed buffers",
			func() { d.commBufBlocks++ }, func() { d.commBufBlocks-- }},
		{"cached buffer recycled", "free list",
			func() { d.freeBufs.items = append(d.freeBufs.items, cachedBuf) },
			func() { d.freeBufs.items = d.freeBufs.items[:len(d.freeBufs.items)-1] }},
		{"queued chunk at or below the checkpoint", "at or below the checkpoint",
			func() { d.sealed = append(d.sealed, &sealedSeg{idx: pinned, seq: d.ckptSeq}) },
			func() { d.sealed = d.sealed[:len(d.sealed)-1] }},
		{"sequence number drift", "on the device it holds chunks",
			func() { d.segSeq[pinned]++ }, func() { d.segSeq[pinned]-- }},
		{"open builder pooled", "a spare builder is the open one",
			func() { d.spareBuilders.items = append(d.spareBuilders.items, d.builder) },
			func() { d.spareBuilders.items = d.spareBuilders.items[:len(d.spareBuilders.items)-1] }},
		{"builder pooled twice", "listed as a spare and as a spare",
			func() {
				b := seg.NewBuilder(d.params.Layout)
				d.spareBuilders.items = append(d.spareBuilders.items, b, b)
			},
			func() { d.spareBuilders.items = d.spareBuilders.items[:len(d.spareBuilders.items)-2] }},
		{"head snapshot pooled", "pooled snapshot (epoch",
			func() { d.freeSnaps.items = append(d.freeSnaps.items, d.head.Load()) },
			func() { d.freeSnaps.items = d.freeSnaps.items[:len(d.freeSnaps.items)-1] }},
		{"pooled snapshot with a retire-set", "non-empty retire-set",
			func() {
				s := &snapshot{d: d, ret: retireSet{bufs: [][]byte{d.getBuf()}}}
				d.freeSnaps.items = append(d.freeSnaps.items, s)
			},
			func() { d.freeSnaps.items = d.freeSnaps.items[:len(d.freeSnaps.items)-1] }},
		{"free list past its cap", "past its cap",
			func() { d.freeStates.items = append(d.freeStates.items, make([]*aruState, d.freeStates.max+1)...) },
			func() { d.freeStates.items = d.freeStates.items[:len(d.freeStates.items)-d.freeStates.max-1] }},
		// The owner table moves along, so that the device check, not the
		// table's, is the one that fails.
		{"slot drift", "no data slot",
			func() { moveSlot(d, b1, +1) }, func() { moveSlot(d, b1, -1) }},
	} {
		d.mu.Lock()
		c.plant()
		d.mu.Unlock()
		if err := d.VerifyInternal(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: VerifyInternal = %v, want an error naming %q", c.name, err, c.want)
		}
		d.mu.Lock()
		c.undo()
		d.mu.Unlock()
		if err := d.VerifyInternal(); err != nil {
			t.Fatalf("%s undone: %v", c.name, err)
		}
	}
	if err := d.AbortARU(a); err != nil {
		t.Fatal(err)
	}
}

// moveSlot moves block b's persistent data location by delta slots,
// owner table entry included. Caller holds d.mu.
func moveSlot(d *LLD, b BlockID, delta int) {
	rec := &pmapGet(d.blockTab.root, uint64(b)).persist
	tab := d.segOwn[rec.Seg]
	tab[d.ownIdx(rec.Slot)] = NilBlock
	rec.Slot = uint32(int(rec.Slot) + delta)
	tab[d.ownIdx(rec.Slot)] = b
}
