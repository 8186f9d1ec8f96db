package core

import (
	"aru/internal/seg"
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Cache-ownership suite (pool.go, DESIGN.md §12/§16): a materialized
// version's buffer becomes the cache entry of the location it was
// written to, and comes back to the free list only through the
// retire-set of the window that displaced it. A mistake in that cycle —
// a buffer retired twice, recycled while a reader or a pinned epoch can
// still reach it, or left with two owners — shows up here as a read
// returning another block's bytes or the poison pattern, as a race
// report (the mvcc-gate job runs the suite under -race -cpu=1,2,4), or
// as a VerifyInternal failure.

// poisonFreeBufs scribbles over every buffer on the free list — nothing
// there may be reachable from a reader — and returns how many it found.
func poisonFreeBufs(d *LLD) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, b := range d.freeBufs.items {
		for i := range b {
			b[i] = 0xDB
		}
	}
	return len(d.freeBufs.items)
}

// cachedBuf returns the buffer the cache holds for (segIdx, slot), nil
// if the location is not cached.
func cachedBuf(d *LLD, segIdx, slot uint32) []byte {
	k := physKey{segIdx, slot}
	for i := range d.cache.slots {
		if e := d.cache.slots[i].Load(); e != nil && e.key == k {
			return e.data
		}
	}
	return nil
}

// TestCacheAdoptIsolation runs lock-free simple readers beside a writer
// whose seals push adopted buffers through a four-entry cache. Every
// write is a uniform pattern drawn from a range private to its block,
// so a read that is not uniform, or uniform outside its block's range,
// has seen a recycled or foreign buffer.
func TestCacheAdoptIsolation(t *testing.T) {
	// Many more segments than a checkpoint interval: a reader's pin must
	// not be able to hold back every reusable segment at once.
	d, _ := newTestLLD(t, Params{Layout: testLayout(256), CacheBlocks: 4})
	defer d.Close()
	const (
		nBlocks   = 7    // one test segment's worth
		span      = 30   // patterns of block i: i*span+1 .. i*span+span, all below 0xDB
		minSeals  = 64   // segments the writer must seal ...
		minReads  = 4000 // ... and reads that must have raced them
		maxRounds = 1 << 16
	)
	lst, _ := d.NewList(0)
	blocks := make([]BlockID, nBlocks)
	for i := range blocks {
		blocks[i], _ = d.NewBlock(0, lst, NilBlock)
		if err := d.Write(0, blocks[i], fill(d, byte(i*span+1))); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			buf := make([]byte, d.BlockSize())
			for n := r; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := n % nBlocks
				if err := d.Read(0, blocks[i], buf); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				v := buf[0]
				if !bytes.Equal(buf, fill(d, v)) {
					t.Errorf("reader %d: block %d is not uniform (%#x %#x ...)", r, i, buf[0], buf[1])
					return
				}
				if int(v) <= i*span || int(v) > (i+1)*span {
					t.Errorf("reader %d: block %d holds %#x, outside its own range — another block's or a recycled buffer", r, i, v)
					return
				}
				reads.Add(1)
			}
		}(r)
	}

	// One round: a unit rewriting every block, sealed by a Flush.
	round := func(n int) error {
		a, err := d.BeginARU()
		if err != nil {
			return err
		}
		for i, b := range blocks {
			if err := d.Write(a, b, fill(d, byte(i*span+1+n%span))); err != nil {
				return err
			}
		}
		if err := d.EndARU(a); err != nil {
			return err
		}
		return d.Flush()
	}
	before := d.Stats().SegmentsWritten
	var werr error
	for n := 0; (n < minSeals || reads.Load() < minReads) && n < maxRounds && werr == nil && !t.Failed(); n++ {
		werr = round(n)
		poisonFreeBufs(d)
	}
	close(stop)
	readers.Wait()
	if werr != nil {
		t.Fatalf("writer: %v", werr)
	}
	if n := d.Stats().SegmentsWritten - before; !t.Failed() && (n < minSeals || reads.Load() < minReads) {
		t.Fatalf("%d segments sealed beside %d reads; the test needs %d and %d", n, reads.Load(), minSeals, minReads)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotOutlivesCacheEviction pins two epochs on one block — one
// that still sees the committed version's in-memory buffer, one that
// reads the same bytes through a cache hit after the flush handed the
// buffer to the cache — and then evicts the entry many times over while
// poisoning the free list. Both handles must keep answering with the
// original bytes, and the adopted buffer must not reach the free list
// while either epoch is pinned.
func TestSnapshotOutlivesCacheEviction(t *testing.T) {
	const cacheBlocks = 4
	d, _ := newTestLLD(t, Params{CacheBlocks: cacheBlocks})
	defer d.Close()
	lst, _ := d.NewList(0)
	target, _ := d.NewBlock(0, lst, NilBlock)
	readOnce(t, d, target)
	others := make([]BlockID, 6)
	for i := range others {
		others[i], _ = d.NewBlock(0, lst, NilBlock)
	}
	want := fill(d, 0x5A)
	if err := d.Write(0, target, want); err != nil {
		t.Fatal(err)
	}
	hMem, err := d.AcquireSnapshot() // sees the version's buffer itself
	if err != nil {
		t.Fatal(err)
	}
	defer hMem.Release()
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	retireOpenSegment(t, d) // or the reads below are served from its builder
	rec, ok := d.viewBlock(target, 0)
	if !ok || !rec.HasData {
		t.Fatalf("target not materialized: %+v", rec)
	}
	adopted := cachedBuf(d, rec.Seg, rec.Slot)
	if adopted == nil {
		t.Fatal("the flush did not leave the block's buffer in the cache")
	}
	hHit, err := d.AcquireSnapshot() // reads it through the cache
	if err != nil {
		t.Fatal(err)
	}
	defer hHit.Release()
	got := make([]byte, d.BlockSize())
	hits := d.live.CacheHits.Load()
	if err := hHit.Read(0, target, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("cache-hit read: %v, %#x", err, got[0])
	}
	if d.live.CacheHits.Load() != hits+1 {
		t.Fatal("the pinned read was not a cache hit")
	}

	evictions := 0
	for v := byte(1); evictions < 2*cacheBlocks+len(others); v++ {
		commitFill(t, d, others, v)
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		evictions += len(others)
		poisonFreeBufs(d)
	}
	if cachedBuf(d, rec.Seg, rec.Slot) != nil {
		t.Fatal("the adopted entry was never evicted; the test has no teeth")
	}
	d.mu.Lock()
	for _, b := range d.freeBufs.items {
		if &b[0] == &adopted[0] {
			t.Error("the adopted buffer was recycled while epochs that can reach it are pinned")
		}
	}
	d.mu.Unlock()
	for name, h := range map[string]*Snapshot{"in-memory": hMem, "cache-hit": hHit} {
		if err := h.Read(0, target, got); err != nil {
			t.Fatalf("%s handle: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s handle drifted: reads %#x, want %#x", name, got[0], want[0])
		}
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestPrevVersionAdoption: a stashed pre-unit version (prevData) that a
// seal emits is adopted by the cache like any other materialized
// buffer, and gives up its committed-buffer slot exactly once —
// VerifyInternal's committed-buffer equality holds before and after.
func TestPrevVersionAdoption(t *testing.T) {
	d, _ := newTestLLD(t, Params{Variant: VariantOld})
	defer d.Close()
	lst, _ := d.NewList(0)
	b, _ := d.NewBlock(0, lst, NilBlock)
	readOnce(t, d, b)
	if err := d.Write(0, b, fill(d, 1)); err != nil {
		t.Fatal(err)
	}
	a, err := d.BeginARU()
	if err != nil {
		t.Fatal(err)
	}
	// The unit's write is gated: the earlier, commit-pending version is
	// stashed, so the block now holds two committed buffers.
	if err := d.Write(a, b, fill(d, 2)); err != nil {
		t.Fatal(err)
	}
	if d.commBufBlocks != 2 {
		t.Fatalf("commBufBlocks = %d before the seal, want 2", d.commBufBlocks)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatalf("before the seal: %v", err)
	}
	segIdx, top := uint32(d.curSeg), d.builder.Top()
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := lockedStats(d).PrevVersionsEmitted; n != 1 {
		t.Fatalf("PrevVersionsEmitted = %d, want 1", n)
	}
	if d.commBufBlocks != 0 {
		t.Fatalf("commBufBlocks = %d after the seal, want 0", d.commBufBlocks)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatalf("after the seal: %v", err)
	}
	// Materialization is in timestamp order on the device: the stash, then
	// the unit's version directly below the chunk's header sector. Each
	// location's entry is the buffer that was written there.
	for i, v := range []byte{2, 1} {
		slot := seg.SlotSector | uint32((top-seg.SectorSize-(i+1)*d.BlockSize())/seg.SectorSize)
		if got := cachedBuf(d, segIdx, slot); !bytes.Equal(got, fill(d, v)) {
			t.Fatalf("cache entry of slot %#x does not hold pattern %d", slot, v)
		}
	}
	if err := d.EndARU(a); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, d.BlockSize())
	if err := d.Read(0, b, got); err != nil || !bytes.Equal(got, fill(d, 2)) {
		t.Fatalf("read after commit: %v, %#x", err, got[0])
	}
}

// TestWriteAllocationFollowsDemand: an engine that has never served a read
// keeps nothing of what it writes in the cache — the buffers go back to
// the pool — and from its first read on every materialized buffer becomes
// the cache entry of its location, as before.
func TestWriteAllocationFollowsDemand(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	defer d.Close()
	cached := func() (n int) {
		for i := range d.cache.slots {
			if d.cache.slots[i].Load() != nil {
				n++
			}
		}
		return n
	}
	lst, _ := d.NewList(0)
	var blocks []BlockID
	for i := 0; i < 20; i++ { // three segments' worth
		b, _ := d.NewBlock(0, lst, NilBlock)
		if err := d.Write(0, b, fill(d, byte(i+1))); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := cached(); n != 0 {
		t.Fatalf("%d cache entries on an engine nobody has read from", n)
	}
	readOnce(t, d, blocks[0])
	for i, b := range blocks {
		if err := d.Write(0, b, fill(d, byte(0x80+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := cached(); n < len(blocks) {
		t.Fatalf("%d cache entries after %d blocks were rewritten and flushed on an engine that reads", n, len(blocks))
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// reusedAt names the first place a fill or write could take b from, or
// write into, again: the engine's free list, the reserve reader fills
// take from, or a cache entry. It returns "" while b waits on the
// displaced list, on a retire-set or nowhere the engine sees. The
// caller runs no reader beside it.
func reusedAt(d *LLD, b []byte) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, f := range d.freeBufs.items {
		if &f[0] == &b[0] {
			return "the free list"
		}
	}
	for i := range d.cache.reserve.slots {
		if x := d.cache.reserve.slots[i].Load(); x != nil && &x.buf[0] == &b[0] {
			return "the reserve"
		}
	}
	for i := range d.cache.slots {
		if e := d.cache.slots[i].Load(); e != nil && &e.data[0] == &b[0] {
			return fmt.Sprintf("the cache entry of %+v", e.key)
		}
	}
	return ""
}

// TestReaderEvictionWaitsForEpoch: an epoch pinned while a reader copies
// out of a cache entry keeps that entry's buffer from every place it
// could be reused, even after reader misses alone — no publish between
// — evict the entry, and through any number of later publishes and
// fills while the pin is held. Once the pin is released the buffer
// recycles. Single-threaded, so a buffer that is reused at eviction,
// without waiting for the epoch, fails it on every run.
func TestReaderEvictionWaitsForEpoch(t *testing.T) {
	const cacheBlocks = 4
	d, _ := newTestLLD(t, Params{CacheBlocks: cacheBlocks})
	defer d.Close()
	lst, _ := d.NewList(0)
	blocks := make([]BlockID, 5*cacheBlocks)
	for i := range blocks {
		blocks[i], _ = d.NewBlock(0, lst, NilBlock)
		if err := d.Write(0, blocks[i], fill(d, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	writer, _ := d.NewBlock(0, lst, NilBlock) // its writes publish; its version stays in memory
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	retireOpenSegment(t, d) // every read below misses into the cache or hits it
	got := make([]byte, d.BlockSize())
	read := func(i int) {
		t.Helper()
		if err := d.Read(0, blocks[i], got); err != nil || !bytes.Equal(got, fill(d, byte(i+1))) {
			t.Fatalf("block %d: %v, reads %#x", i, err, got[0])
		}
	}
	publish := func(v byte) {
		t.Helper()
		if err := d.Write(0, writer, fill(d, v)); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: reader fills evict each other and publishes recycle what
	// they displaced, so recycled buffers are in circulation.
	for round := 0; round < 4; round++ {
		for i := range blocks {
			read(i)
		}
		publish(byte(round))
	}

	const target = 0
	read(target) // a miss: the reader's fill is the target's entry
	h, err := d.AcquireSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	rec, _ := d.viewBlock(blocks[target], 0)
	buf := cachedBuf(d, rec.Seg, rec.Slot)
	if buf == nil {
		t.Fatal("the target is not cached after its read")
	}
	hits := d.live.CacheHits.Load()
	if err := h.Read(0, blocks[target], got); err != nil || !bytes.Equal(got, fill(d, target+1)) {
		t.Fatalf("pinned read: %v, %#x", err, got[0])
	}
	if d.live.CacheHits.Load() != hits+1 {
		t.Fatal("the pinned read was not a cache hit")
	}

	// Evict the entry through reader misses only.
	epochs := lockedStats(d).EpochsPublished
	for i := 1; i <= 2*cacheBlocks; i++ {
		read(i)
	}
	if cachedBuf(d, rec.Seg, rec.Slot) != nil {
		t.Fatal("reader misses did not evict the target; the test has no teeth")
	}
	if lockedStats(d).EpochsPublished != epochs {
		t.Fatal("the evicting reads published an epoch")
	}
	if at := reusedAt(d, buf); at != "" {
		t.Fatalf("the evicted buffer is in %s while an epoch that copied from it is pinned", at)
	}
	// Publishes and fills while the pin is held: the buffer still waits.
	for round := 0; round < 4; round++ {
		publish(byte(0x40 + round))
		for i := range blocks {
			read(i)
			if at := reusedAt(d, buf); at != "" {
				t.Fatalf("round %d: the evicted buffer is in %s while an epoch that copied from it is pinned", round, at)
			}
		}
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
	if d.live.CacheFillAllocs.Load() == d.live.CacheMisses.Load() {
		t.Fatal("every reader fill allocated: no recycled buffer was in circulation")
	}

	h.Release()
	publishNow(d) // purges every epoch the pin held back
	if at := reusedAt(d, buf); at == "" {
		t.Fatal("the evicted buffer did not recycle once the pin was released")
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}
