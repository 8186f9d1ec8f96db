package core

// Free lists for the engine's steady-state churn (DESIGN.md §12).
//
// Every structure the hot paths allocate per operation — block
// buffers, ARU states, sealed-segment entries, snapshot structs,
// segment builders, owner tables; table leaves and trie nodes in
// epochmap.go — is recycled on a freeList owned by the LLD and guarded
// by d.mu, like everything else it points into. sync.Pool is
// deliberately not used: all mutation already happens under the engine
// lock (so there is no contention to shard away), and LLD-owned
// lists are released with the instance instead of lingering in per-P
// caches.
//
// One rule covers everything a published epoch can reach — leaves,
// trie nodes, block buffers, builders, sealed images: it is retired
// into the head epoch's retire-set (d.ret), never freed directly, and
// recycles only when that epoch drains (snapshot.go). On top of that:
//
//   - A block buffer ([]byte of Layout.BlockSize) has one owner: a
//     version slot (data or prevData) of the table's current leaf, or
//     an entry of the read cache. Older leaves of the same block alias
//     it read-only, and it is never written after it is installed.
//     Transfers move the buffer without retiring it: shadow→committed
//     merge in endARUNew, data→prevData in stashPrev, and version→cache
//     at materialization (takeBuf + cacheAdopt — the bytes just copied
//     into the segment image are the cache entry of that location, so
//     a block moves caller → buffer → image and is never copied into
//     fresh memory). Every other release goes through putBuf.
//   - A cache entry's buffer leaves the cache with the entry: a fill
//     (blockCache.adopt) returns the buffers of the entries it
//     displaced — the ring victim, a refreshed duplicate key — and only
//     of those whose removing CAS it won, so nothing is handed back
//     twice. On the engine's fills, made under d.mu, they go to putBuf
//     and recycle when the current window's epoch drains — a reader
//     copying out of the entry is still pinned to an epoch no younger
//     than that. Buffers thus circulate free list → version → cache →
//     retire-set → free list. Reader-side fills (snapshot.readPhys →
//     blockCache.put) run outside d.mu: they allocate the entry's
//     buffer, since the free list is not theirs to take from, and leave
//     what they displace to the garbage collector, since d.ret is not
//     theirs to append to; such a buffer simply joins the cycle if the
//     engine later displaces it. purgeSeg leaves what it drops to the
//     collector too (a burst no fill takes up).
//   - A leaf is mutable only in the window it was born in
//     (table.edit); once it retires, purge clears its version array so
//     a pooled leaf pins no buffer.
//   - An aruState is recycled only after it is deleted from d.arus; its
//     slices are cleared but keep their capacity across reuse.
//   - A sealedSeg is reachable only from the engine (d.sealed, the
//     leader's work list) — snapshots pin the builder, not the entry — so
//     retire pools it directly. Its image (e.img) aliases its segment's
//     builder, which it gives up in releaseImage; the builder is retired
//     when its segment is and the last such claim is gone — pooled at
//     once if no publish named it (retireBuilder), else through the
//     retire-set. The builder keeps its old bytes when it is recycled:
//     a chunk has no gap, and Seal writes every byte of the one it
//     returns.

// freeList is a capped stack of spare objects. put drops what would
// take it past max, leaving it to the garbage collector, so a burst
// (many concurrent ARUs, a long-pinned snapshot draining) does not pin
// its high-water mark forever. Each list's cap is set where the LLD or
// its table is built.
type freeList[T any] struct {
	items []T
	max   int
}

// get pops a spare, if there is one.
func (f *freeList[T]) get() (x T, ok bool) {
	n := len(f.items)
	if n == 0 {
		return x, false
	}
	x = f.items[n-1]
	var zero T
	f.items[n-1] = zero
	f.items = f.items[:n-1]
	return x, true
}

// put pools x unless the list is full.
func (f *freeList[T]) put(x T) {
	if len(f.items) < f.max {
		f.items = append(f.items, x)
	}
}

// drain pools every object of xs, each reset first, and returns xs
// emptied with its capacity kept (the purge path).
func (f *freeList[T]) drain(xs []T, reset func(T)) []T {
	for _, x := range xs {
		reset(x)
		f.put(x)
	}
	clear(xs)
	return xs[:0]
}

// capped is any free list, for VerifyInternal's cap check.
type capped interface{ over() bool }

func (f *freeList[T]) over() bool { return len(f.items) > f.max }

// getBuf returns a block-sized buffer. Contents are undefined; every
// caller overwrites the full block.
// Caller holds d.mu.
func (d *LLD) getBuf() []byte {
	if b, ok := d.freeBufs.get(); ok {
		return b
	}
	return make([]byte, d.params.Layout.BlockSize)
}

// putBuf retires a dead block buffer: a published snapshot may still
// alias it, so it joins the current epoch's retire-set and recycles
// only when that epoch drains. Caller holds d.mu.
func (d *LLD) putBuf(b []byte) {
	if len(b) != d.params.Layout.BlockSize {
		return
	}
	d.ret.bufs = append(d.ret.bufs, b)
}

// cacheAdopt hands buf — a committed version's buffer whose contents
// were just written to (segIdx, slot) — to the read cache as that
// location's entry, and retires whatever the fill displaced (buf itself
// if there is no cache or the fill was dropped).
//
// Write-allocation follows demand: until the engine has served its first
// read, buf goes back to the pool instead. The cache exists to spare reads
// a device access; a client that only ever writes — a participant behind a
// write-only stream, a log target — gets nothing from a cache of what it
// wrote but the memory (a capacity's worth per engine, which nothing
// purges now that segments are not retired and reused by the thousand)
// and the cost of the fills. Caller holds d.mu.
func (d *LLD) cacheAdopt(segIdx, slot uint32, buf []byte) {
	if d.cache == nil || d.live.Reads.Load() == 0 {
		d.putBuf(buf)
		return
	}
	out1, out2 := d.cache.adopt(segIdx, slot, buf)
	d.putBuf(out1)
	d.putBuf(out2)
}

// getState returns an aruState for a new unit, reusing the slice
// capacity of a retired one. Caller holds d.mu.
func (d *LLD) getState(id ARUID) *aruState {
	st, ok := d.freeStates.get()
	if !ok {
		st = new(aruState)
	}
	st.id = id
	return st
}

// putState recycles st after it was deleted from d.arus. Its slices
// were already cleared to length zero by ungate/discardShadow.
// Caller holds d.mu.
func (d *LLD) putState(st *aruState) {
	st.id = 0
	st.prepared, st.prepTxn = false, 0
	d.freeStates.put(st)
}

// getSealed returns a zeroed sealed-segment entry (stamps keeps its
// capacity). Caller holds d.mu.
func (d *LLD) getSealed() *sealedSeg {
	if e, ok := d.spareSeals.get(); ok {
		return e
	}
	return new(sealedSeg)
}

// putSealed pools a retired sealed-segment entry. Caller holds d.mu.
func (d *LLD) putSealed(e *sealedSeg) {
	*e = sealedSeg{stamps: e.stamps[:0]}
	d.spareSeals.put(e)
}

// matItem is one buffered committed-state version queued for
// materialization into the open segment (see materializeCommitted).
type matItem struct {
	id   BlockID
	data []byte
	ts   uint64
	tag  ARUID
	prev bool
}
