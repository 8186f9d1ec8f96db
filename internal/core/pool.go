package core

import "sync/atomic"

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
//     blockCache.put) run outside d.mu and join the same cycle through
//     a lock-free hand-off: a fill takes its buffer from the cache's
//     reserve (allocating only when it is empty) and pushes what it
//     displaced onto the displaced list. The next publish moves that
//     list, before the head swing, into the closing window's retire-set
//     (retireDisplaced), so a displaced buffer recycles only after every
//     epoch a reader could be copying it under has drained. The reserve
//     is refilled right after each purge (refillReserve), from the free
//     list only — buffers whose epoch has drained — and with no more
//     than reader fills took since the last refill, so an engine nobody
//     reads from parks nothing there. Past the displaced list's cap a
//     buffer goes to the collector: a stretch of reads with no write
//     has no publish to drain the list. purgeSeg leaves what it drops
//     to the collector too (a burst no fill takes up).
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

// bufNode carries one block buffer through the reader hand-off: in a
// reserve slot, on the displaced list, or spare on the LLD. Its fields
// are written only by the node's one holder — the engine under d.mu, or
// the reader that took it from the reserve — and before the atomic
// store that hands it on.
type bufNode struct {
	buf  []byte
	next *bufNode // displaced-list link
}

// handoffCap sizes the reserve and caps the displaced list: what the
// hand-off parks is live heap, and a draft that kept the reserve full
// and capped the list at 256 raised heap_live_mb on every workload
// (EXPERIMENTS.md, "Reader fills").
const handoffCap = 64

// bufReserve is the recycled buffers reader fills take from. Only the
// engine stores into a slot (under d.mu, into an empty one); a reader
// takes a node with Swap, so each node has exactly one taker and a
// slot cannot suffer ABA. n counts parked nodes: the engine adds after
// its store, a taker subtracts after its Swap, so a reader that finds
// it zero allocates without a scan.
type bufReserve struct {
	slots [handoffCap]atomic.Pointer[bufNode]
	n     atomic.Int32
	fills atomic.Int64 // reader fills since the last refill: the demand
}

// take removes and returns a parked node, nil if there is none.
func (r *bufReserve) take() *bufNode {
	if r.n.Load() <= 0 {
		return nil
	}
	for i := range r.slots {
		if r.slots[i].Load() != nil {
			if x := r.slots[i].Swap(nil); x != nil {
				r.n.Add(-1)
				return x
			}
		}
	}
	return nil
}

func (r *bufReserve) over() bool { return r.n.Load() > handoffCap }

// bufStack is the displaced list: a push-only Treiber stack that the
// engine empties whole with one Swap, so no node is ever popped alone
// and the push's CAS cannot suffer ABA. n is incremented before a push
// and decremented by the drain, so it never undercounts the list.
type bufStack struct {
	head atomic.Pointer[bufNode]
	n    atomic.Int32
}

// push links x onto the list unless that would take it past
// handoffCap.
func (s *bufStack) push(x *bufNode) {
	if s.n.Add(1) > handoffCap {
		s.n.Add(-1)
		return
	}
	for {
		old := s.head.Load()
		x.next = old
		if s.head.CompareAndSwap(old, x) {
			return
		}
	}
}

// drain detaches the whole list and returns it. Caller holds d.mu.
func (s *bufStack) drain() *bufNode {
	if s.head.Load() == nil {
		return nil
	}
	h := s.head.Swap(nil)
	var k int32
	for x := h; x != nil; x = x.next {
		k++
	}
	s.n.Add(-k)
	return h
}

func (s *bufStack) over() bool {
	n := 0
	for x := s.head.Load(); x != nil; x = x.next {
		n++
	}
	return n > handoffCap
}

// retireDisplaced moves the buffers reader fills displaced since the
// last publish into the current window's retire-set. It runs before the
// head swing: each buffer left the cache before the drain, so a reader
// still copying out of it pinned an epoch no younger than the head the
// set belongs to. Caller holds d.mu.
func (d *LLD) retireDisplaced() {
	if d.cache == nil {
		return
	}
	for x := d.cache.displaced.drain(); x != nil; {
		next := x.next
		d.putBuf(x.buf)
		x.buf, x.next = nil, nil
		d.spareNodes.put(x)
		x = next
	}
}

// refillReserve parks in the cache's reserve as many free-list buffers
// as reader fills took since the last refill, as far as the empty slots
// go. What the free list cannot supply yet — its buffers still wait on
// a pinned epoch — stays asked for until the next refill. Caller holds
// d.mu.
func (d *LLD) refillReserve() {
	if d.cache == nil {
		return
	}
	r := &d.cache.reserve
	want := r.fills.Swap(0)
	for i := 0; i < len(r.slots) && want > 0; i++ {
		if r.slots[i].Load() != nil {
			continue
		}
		b, ok := d.freeBufs.get()
		if !ok {
			r.fills.Add(min(want, handoffCap))
			return
		}
		x, ok := d.spareNodes.get()
		if !ok {
			x = new(bufNode)
		}
		x.buf = b
		r.slots[i].Store(x)
		r.n.Add(1)
		want--
	}
}

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
