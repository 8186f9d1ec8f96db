package core

import (
	"fmt"
	"sort"

	"aru/internal/seg"
)

// CheckDisk runs the disk consistency check of paper §3.3: blocks that
// were allocated inside an ARU that never committed remain allocated
// (allocation always happens in the committed state) but sit on no
// list; the check frees them. It returns the number of blocks freed.
//
// Blocks that an *open* ARU has allocated but not yet committed onto a
// list are skipped, so CheckDisk is safe to run at any time. Open runs
// it automatically at the end of every recovery.
func (d *LLD) CheckDisk() (int, error) {
	d.mu.Lock()
	defer d.endOp()
	if d.closed {
		return 0, ErrClosed
	}
	return d.freeLeaked(d.leakedBlocks(nil))
}

// leakedBlocks walks the block map and returns, in ascending order, the
// blocks the sweep frees. visit, if not nil, is shown every entry on the
// way: mount takes its per-segment counts from this walk too.
func (d *LLD) leakedBlocks(visit func(lf *blockLeaf)) []BlockID {
	// Blocks an open ARU intends to insert are not leaked.
	claimed := make(map[BlockID]bool)
	for _, st := range d.arus {
		for _, op := range st.linkLog {
			if op.kind == opInsert {
				claimed[op.block] = true
			}
		}
		for _, id := range st.shadowBlocks {
			claimed[id] = true
		}
	}
	var leaked []BlockID
	pmapWalk(d.blockTab.root, func(lf *blockLeaf) bool {
		if visit != nil {
			visit(lf)
		}
		// A committed deletion pending promotion does not resolve.
		rec, ok := lf.view(seg.SimpleARU)
		if id := BlockID(lf.id); ok && rec.List == NilList && !claimed[id] {
			leaked = append(leaked, id)
		}
		return true
	})
	sort.Slice(leaked, func(i, j int) bool { return leaked[i] < leaked[j] })
	return leaked
}

// freeLeaked de-allocates the blocks leakedBlocks found.
func (d *LLD) freeLeaked(leaked []BlockID) (int, error) {
	m := mode{view: seg.SimpleARU, tag: seg.SimpleARU}
	for _, id := range leaked {
		if err := d.deleteBlockIn(m, id, true); err != nil {
			return 0, fmt.Errorf("lld: consistency sweep of block %d: %w", id, err)
		}
	}
	d.stats.LeakedBlocksFreed += int64(len(leaked))
	return len(leaked), nil
}

// FreeSegments returns the number of freeable log segments: those
// holding nothing the log still needs (segFreeable), including ones
// whose reuse still waits for a device sync or for snapshot readers to
// drain. It is the count the cleaner's low-water mark reads.
func (d *LLD) FreeSegments() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.free)
}

// ListBlocks returns the members of list lst, in order, as seen from
// the state of aru (SimpleARU for the committed view). It walks the
// current published epoch (snapshot.go), lock-free unless a unit's
// shadow edit must be published first (acquireView).
func (d *LLD) ListBlocks(aru ARUID, lst ListID) ([]BlockID, error) {
	s := d.acquireView(aru)
	if s == nil {
		return nil, ErrClosed
	}
	defer s.release()
	if s.closed {
		return nil, ErrClosed
	}
	view, err := s.viewFor(aru)
	if err != nil {
		return nil, err
	}
	return s.listBlocks(view, lst)
}

// Lists returns the identifiers of all lists visible in the state of
// aru, in ascending order, against the current epoch (acquireView).
func (d *LLD) Lists(aru ARUID) ([]ListID, error) {
	s := d.acquireView(aru)
	if s == nil {
		return nil, ErrClosed
	}
	defer s.release()
	if s.closed {
		return nil, ErrClosed
	}
	view, err := s.viewFor(aru)
	if err != nil {
		return nil, err
	}
	return s.listIDs(view), nil
}

// BlockInfo describes one block version for inspection.
type BlockInfo struct {
	ID      BlockID
	List    ListID
	Succ    BlockID
	HasData bool
	TS      uint64
}

// StatBlock returns the effective record of a block in the state of
// aru, against the current epoch (acquireView).
func (d *LLD) StatBlock(aru ARUID, b BlockID) (BlockInfo, error) {
	s := d.acquireView(aru)
	if s == nil {
		return BlockInfo{}, ErrClosed
	}
	defer s.release()
	if s.closed {
		return BlockInfo{}, ErrClosed
	}
	view, err := s.viewFor(aru)
	if err != nil {
		return BlockInfo{}, err
	}
	rec, ok := viewRec(s.blocks, uint64(b), view)
	if !ok {
		return BlockInfo{}, fmt.Errorf("%w: %d", ErrNoSuchBlock, b)
	}
	return BlockInfo{ID: b, List: rec.List, Succ: rec.Succ, HasData: rec.HasData, TS: rec.TS}, nil
}

// verKey names one alternative version for VerifyInternal.
type verKey struct {
	list bool // a list version (else a block version)
	id   uint64
	aru  ARUID
}

// VerifyInternal cross-checks in-memory invariants: list chains are
// acyclic and well-terminated in every state and Last pointers are
// correct; per-segment live and pin counts and owner tables, the entry
// counters, the version gauges and the committed-buffer count equal what
// the tables hold; the same-state chains name exactly the versions present —
// every version on exactly one chain, every gated committed version on
// exactly one open ARU's touched list; and every block buffer has one
// owner — nothing a cache entry holds is also in a version slot, on the
// free list or on a retire-set; no spare builder is reachable or listed
// twice. One check leaves memory (verifyOnDevice):
// the chunks of every segment whose blocks are read from the device. It is
// exported for tests and the fsck tool.
func (d *LLD) VerifyInternal() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	views := []ARUID{seg.SimpleARU}
	if d.params.Variant == VariantNew {
		for id := range d.arus {
			views = append(views, id)
		}
	}
	var lists []ListID
	pmapWalk(d.listTab.root, func(lf *listLeaf) bool {
		lists = append(lists, ListID(lf.id))
		return true
	})
	for _, v := range views {
		for _, id := range lists {
			lrec, ok := d.viewList(id, v)
			if !ok {
				continue
			}
			var last BlockID
			n := 0
			for cur := lrec.First; cur != NilBlock; {
				crec, ok := d.viewBlock(cur, v)
				if !ok {
					return fmt.Errorf("lld: verify: view %d list %d references missing block %d", v, id, cur)
				}
				if crec.List != id {
					return fmt.Errorf("lld: verify: view %d block %d on list %d claims list %d", v, cur, id, crec.List)
				}
				last = cur
				cur = crec.Succ
				if n++; n > d.blockTab.n+1 {
					return fmt.Errorf("lld: verify: view %d list %d has a cycle", v, id)
				}
			}
			if lrec.Last != last {
				return fmt.Errorf("lld: verify: view %d list %d Last=%d, chain ends at %d", v, id, lrec.Last, last)
			}
		}
	}

	// What the same-state chains claim...
	chained := make(map[verKey]int)
	gated := make(map[verKey]int)
	for _, id := range d.commBlocks {
		chained[verKey{false, uint64(id), seg.SimpleARU}]++
	}
	for _, id := range d.commLists {
		chained[verKey{true, uint64(id), seg.SimpleARU}]++
	}
	for _, st := range d.arus {
		for _, id := range st.shadowBlocks {
			chained[verKey{false, uint64(id), st.id}]++
		}
		for _, id := range st.shadowLists {
			chained[verKey{true, uint64(id), st.id}]++
		}
		for _, id := range st.touched {
			gated[verKey{false, uint64(id), seg.SimpleARU}]++
		}
		for _, id := range st.touchedLists {
			gated[verKey{true, uint64(id), seg.SimpleARU}]++
		}
	}
	// ...against the versions the tables hold, each ticked off once.
	// The first inconsistency found is the one reported.
	var err error
	fail := func(format string, a ...any) {
		if err == nil {
			err = fmt.Errorf("lld: verify: "+format, a...)
		}
	}
	var alts, shadows int64
	present := func(k verKey, recID, commitTS uint64) {
		alts++
		if k.aru != seg.SimpleARU {
			shadows++
		}
		if recID != k.id {
			fail("version %+v carries record id %d", k, recID)
		}
		if chained[k] != 1 {
			fail("version %+v is on %d same-state chains", k, chained[k])
		}
		delete(chained, k)
		if commitTS == gateOpen {
			if gated[k] != 1 {
				fail("gated version %+v is on %d touched lists", k, gated[k])
			}
			delete(gated, k)
		}
	}
	// The buffers the cache table owns, for the one-owner rule (pool.go).
	// Readers fill beside this walk: a fill takes a buffer out of the
	// table before it pushes it onto the displaced list, and puts one in
	// only after taking it from the reserve, so the list is read before
	// the table and the reserve after it, and no move shows as two owners.
	var displaced [][]byte
	if d.cache != nil {
		for x := d.cache.displaced.head.Load(); x != nil; x = x.next {
			displaced = append(displaced, x.buf)
		}
	}
	cached := make(map[*byte]physKey)
	if d.cache != nil {
		for i := range d.cache.slots {
			if e := d.cache.slots[i].Load(); e != nil && len(e.data) != 0 {
				if k, dup := cached[&e.data[0]]; dup {
					fail("cache entries %+v and %+v share one buffer", k, e.key)
				}
				cached[&e.data[0]] = e.key
			}
		}
	}
	notCached := func(b []byte, where string) {
		if len(b) != 0 {
			if k, ok := cached[&b[0]]; ok {
				fail("the buffer of cache entry %+v is also %s", k, where)
			}
		}
	}
	// A parked buffer — free, retired or in the reader hand-off — is in
	// no cache entry and parked once.
	parked := make(map[*byte]string)
	park := func(b []byte, where string) {
		notCached(b, where)
		if len(b) == 0 {
			return
		}
		if w, dup := parked[&b[0]]; dup {
			fail("one buffer is both %s and %s", w, where)
		}
		parked[&b[0]] = where
	}
	for _, b := range d.freeBufs.items {
		park(b, "on the free list")
	}
	for s := d.snapOldest; s != nil; s = s.next {
		for _, b := range s.ret.bufs {
			park(b, "on a retire-set")
		}
	}
	for _, b := range displaced {
		park(b, "on the displaced list")
	}
	if d.cache != nil {
		// A reader may write a node it took, so the walk takes each node
		// too, and puts it back where it was: only the engine stores into
		// a slot, and it holds d.mu.
		r := &d.cache.reserve
		for i := range r.slots {
			if x := r.slots[i].Swap(nil); x != nil {
				park(x.buf, "in the reserve")
				r.slots[i].Store(x)
			}
		}
	}

	live := make([]int32, d.params.Layout.NumSegs)
	pins := make([]int32, d.params.Layout.NumSegs)
	// The free set (log.go) holds each segment segFreeable is true of
	// once, and no other (checked in the per-segment loop below).
	inFree := make([]bool, d.params.Layout.NumSegs)
	for _, s := range d.free {
		if inFree[s] {
			fail("segment %d is in the free set twice", s)
		} else if !d.segFreeable(s) {
			fail("segment %d is in the free set but not freeable", s)
		}
		inFree[s] = true
	}
	nBlocks, nLists, bufs := 0, 0, 0
	pmapWalk(d.blockTab.root, func(lf *blockLeaf) bool {
		nBlocks++
		if lf.hasPersist && lf.persist.HasData {
			s := lf.persist.Seg
			live[s]++
			if i := d.ownIdx(lf.persist.Slot); d.segOwn[s] == nil || d.segOwn[s][i] != BlockID(lf.id) {
				fail("segment %d owner table does not name block %d at its slot %#x", s, lf.id, lf.persist.Slot)
			}
		}
		for i := range lf.vers {
			v := &lf.vers[i]
			if v.rec.HasData {
				pins[v.rec.Seg]++
			}
			if v.aru == seg.SimpleARU && v.data != nil {
				bufs++
			}
			if v.aru == seg.SimpleARU && v.prevData != nil {
				bufs++
			}
			notCached(v.data, "a version's data")
			notCached(v.prevData, "a version's stashed data")
			present(verKey{false, lf.id, v.aru}, uint64(v.rec.ID), v.commitTS)
		}
		return err == nil
	})
	pmapWalk(d.listTab.root, func(lf *listLeaf) bool {
		nLists++
		for i := range lf.vers {
			v := &lf.vers[i]
			present(verKey{true, lf.id, v.aru}, uint64(v.rec.ID), v.commitTS)
		}
		return err == nil
	})
	if len(chained) != 0 {
		fail("same-state chains name versions that do not exist: %v", chained)
	}
	if len(gated) != 0 {
		fail("touched lists name versions that are not gated: %v", gated)
	}
	if nBlocks != d.blockTab.n || nLists != d.listTab.n {
		fail("entry counters say %d blocks, %d lists; the tries hold %d, %d", d.blockTab.n, d.listTab.n, nBlocks, nLists)
	}
	if a, s := d.stats.AltRecords, d.stats.ShadowRecords; a != alts || s != shadows {
		fail("gauges say %d alternative, %d shadow records; the tables hold %d, %d", a, s, alts, shadows)
	}
	if bufs != d.commBufBlocks {
		fail("%d committed buffers counted, the tables hold %d", d.commBufBlocks, bufs)
	}
	if d.curSeg < 0 && (d.commBufBlocks != 0 || len(d.pendingCommits) != 0) {
		// Only a seal of the open segment makes them durable (sealChunk).
		fail("%d committed buffers and %d commit records wait with no segment open", d.commBufBlocks, len(d.pendingCommits))
	}
	// The sealed queue (groupcommit.go): consecutive seal order with the
	// leader's claim a prefix, an image only with its builder, and every
	// chunk at or below its segment's newest and above the checkpoint —
	// which keeps its segment out of reuse and cleaning (segFreeable).
	for i, e := range d.sealed {
		if i > 0 && (e.seq != d.sealed[i-1].seq+1 || e.claimed && !d.sealed[i-1].claimed) {
			fail("sealed queue out of order at entry %d (seq %d)", i, e.seq)
		}
		if (e.img != nil) != (e.bld != nil) {
			fail("sealed chunk of segment %d (seq %d): image and builder disagree", e.idx, e.seq)
		}
		if e.seq <= d.ckptSeq || e.seq > d.segSeq[e.idx] {
			fail("queued chunk of segment %d (seq %d) is at or below the checkpoint (%d) or above the segment's newest (%d)",
				e.idx, e.seq, d.ckptSeq, d.segSeq[e.idx])
		}
	}
	// The builder pool (groupcommit.go): a spare is a builder nothing can
	// reach — not the open one, not a queued chunk's, not one a snapshot
	// on the purge chain names — and no builder is listed twice across the
	// spares and the retire-sets (the head's is the current window's).
	const spare = "as a spare"
	where := make(map[*seg.Builder]string)
	listed := func(b *seg.Builder, at string) {
		if w, dup := where[b]; dup {
			fail("a builder is listed %s and %s", w, at)
		}
		where[b] = at
	}
	reached := func(b *seg.Builder, by string) {
		if b != nil && where[b] == spare {
			fail("a spare builder is %s", by)
		}
	}
	for _, b := range d.spareBuilders.items {
		listed(b, spare)
	}
	reached(d.builder, "the open one")
	for _, e := range d.sealed {
		reached(e.bld, fmt.Sprintf("queued chunk %d's", e.seq))
	}
	chain := make(map[*snapshot]bool)
	for s := d.snapOldest; s != nil; s = s.next {
		chain[s] = true
		for _, b := range s.ret.builders {
			listed(b, fmt.Sprintf("on epoch %d's retire-set", s.epoch))
		}
		reached(s.curBld, fmt.Sprintf("open in epoch %d", s.epoch))
		for _, p := range s.sealed {
			reached(p.bld, fmt.Sprintf("named by epoch %d", s.epoch))
		}
	}
	for s := range live {
		if live[s] != d.segLive[s] {
			fail("segment %d live count %d, block map says %d", s, d.segLive[s], live[s])
		}
		if named := countOwned(d.segOwn[s]); named != live[s] || (d.segOwn[s] == nil) != (live[s] == 0) {
			fail("segment %d owner table names %d blocks, block map says %d", s, named, live[s])
		}
		if pins[s] != d.segPins[s] {
			fail("segment %d pin count %d, %d versions hold data there", s, d.segPins[s], pins[s])
		}
		if !inFree[s] && d.segFreeable(s) {
			fail("freeable segment %d is missing from the free set", s)
		}
	}
	for _, tab := range d.freeOwn.items {
		if n := countOwned(tab); n != 0 {
			fail("a free owner table names %d blocks", n)
		}
	}
	// The free lists (pool.go): none past its cap, and a pooled snapshot
	// is off the purge chain with its retire-set drained.
	for name, f := range map[string]capped{"buffer": &d.freeBufs, "hand-off node": &d.spareNodes, "ARU state": &d.freeStates,
		"sealed-chunk entry": &d.spareSeals, "snapshot": &d.freeSnaps, "owner table": &d.freeOwn,
		"builder": &d.spareBuilders, "block-map node": &d.blockTab.nodes, "block-map leaf": &d.blockTab.leaves,
		"list-table node": &d.listTab.nodes, "list-table leaf": &d.listTab.leaves,
		"ARU-table node": &d.aruTab.nodes, "ARU-table leaf": &d.aruTab.leaves} {
		if f.over() {
			fail("the %s free list is past its cap", name)
		}
	}
	if d.cache != nil {
		for name, f := range map[string]capped{"reserve": &d.cache.reserve, "displaced list": &d.cache.displaced} {
			if f.over() {
				fail("the cache's %s is past its cap", name)
			}
		}
	}
	for _, s := range d.freeSnaps.items {
		if chain[s] {
			fail("a pooled snapshot (epoch %d) is on the purge chain", s.epoch)
		} else if !s.ret.empty() {
			fail("a pooled snapshot holds a non-empty retire-set")
		}
	}
	if err == nil {
		err = d.verifyOnDevice()
	}
	return err
}

// countOwned returns how many blocks an owner table names.
func countOwned(tab []BlockID) int32 {
	n := int32(0)
	for _, id := range tab {
		if id != NilBlock {
			n++
		}
	}
	return n
}

// verifyOnDevice is the one check of VerifyInternal that leaves memory:
// every segment whose blocks are read from the device is walked there,
// header by header. The newest chunk it holds must be the one segSeq
// records — or, for a segment a mount found outside its replay window and
// took chunk 1's number for, must like chunk 1 lie at or below the
// checkpoint — and every block the tables place in the segment must lie in
// the data area of one of its chunks, on a block boundary of it.
func (d *LLD) verifyOnDevice() error {
	l := d.params.Layout
	type span struct{ off, end int }
	areas := make([][]span, l.NumSegs)
	sector := make([]byte, seg.SectorSize)
	var err error
	place := func(rec *seg.BlockRec) {
		if err != nil || !rec.HasData || areas[rec.Seg] == nil {
			return
		}
		off := seg.SlotOff(rec.Slot)
		for _, a := range areas[rec.Seg] {
			if off >= a.off && off+l.BlockSize <= a.end && (off-a.off)%l.BlockSize == 0 {
				return
			}
		}
		err = fmt.Errorf("lld: verify: block %d is read at segment %d slot %#x, byte %d, which is no data slot of the chunks on the device (data areas %v)",
			rec.ID, rec.Seg, rec.Slot, off, areas[rec.Seg])
	}
	for s := 0; s < l.NumSegs; s++ {
		if d.segLive[s]+d.segPins[s] == 0 || s == d.curSeg || d.heldBuilder(s) != nil {
			continue
		}
		chunks, werr := walkOnDevice(d.dev, l, s, sector)
		if werr != nil {
			return fmt.Errorf("lld: verify: segment %d is read as seq %d, its chunks on the device disagree: %v", s, d.segSeq[s], werr)
		}
		first, last := chunks[0], chunks[len(chunks)-1]
		if d.segSeq[s] != last.Seq && (d.segSeq[s] != first.Seq || last.Seq > d.ckptSeq) {
			return fmt.Errorf("lld: verify: segment %d is read as seq %d, on the device it holds chunks %d to %d (checkpoint at %d)",
				s, d.segSeq[s], first.Seq, last.Seq, d.ckptSeq)
		}
		for _, c := range chunks {
			areas[s] = append(areas[s], span{c.DataOff, c.DataOff + int(c.DataBlocks)*l.BlockSize})
		}
	}
	pmapWalk(d.blockTab.root, func(lf *blockLeaf) bool {
		if lf.hasPersist {
			place(&lf.persist)
		}
		for i := range lf.vers {
			place(&lf.vers[i].rec)
		}
		return err == nil
	})
	return err
}
