package core

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"aru/internal/obs"
	"aru/internal/seg"
)

// Epoch-based MVCC read path (DESIGN.md §16).
//
// Every mutation a simple reader could see publishes a new epoch: an
// immutable snapshot of the block-map, the list-table and the open-ARU
// set behind a single atomic head pointer. Simple readers do one atomic
// load plus a refcount increment and never touch d.mu. BeginARU and a
// unit's shadow edits only flag a publish pending (deferPublish); a read
// in the unit's view, AcquireSnapshot or Stats takes d.mu to publish it
// (publishPending), so the window — and the leaves it cloned — stays
// open across a unit's shadow operations. The tries (epochmap.go)
// are the engine's only copy of that state: writers clone the leaves
// they touch on first touch per window (table.edit), path-copy the
// trie above them, and swing the head at the durability point of the
// operation. Everything an epoch unshared from its successor — trie
// nodes and leaves, block buffers, the segment builders it named and
// sealed images — is parked on the epoch's retire-set and recycled
// into the engine free lists only when the epoch's refcount drains,
// oldest epoch first. The discipline (atomic head, acquire =
// load+incref+revalidate, purge-on-drain with a retry counter) follows
// the bogn snapshot design in bnclabs/gostore.
//
// Lifecycle of one snapshot:
//
//	publish ──► head (live) ──► retired (next published) ──► drained
//	                                  │ ref != 0                │
//	                                  └──── purge retry ◄───────┘
//	                                                 ──► pooled
//
// Purge is strictly oldest-first: a pinned snapshot also pins every
// younger retired epoch, because an object retired in window k may
// still be referenced by ANY snapshot of epoch <= k. Draining epochs
// out of order could recycle a buffer some older pinned snapshot still
// exposes.

// segNone marks "no open segment" in a snapshot.
const segNone = ^uint32(0)

// sharedReader is the optional device interface for reads that bypass
// the device mutex (disk.Sim and disk.File both provide it). Snapshot
// readers use it so a Read performs zero mutex acquisitions end to
// end; devices without it fall back to the locked ReadAt.
type sharedReader interface {
	ReadAtShared(p []byte, off int64) error
}

// snapSeal pins the builder of one retired segment with chunks still
// unwritten, so snapshot readers can serve blocks whose records already
// point into it.
type snapSeal struct {
	idx uint32
	bld *seg.Builder
}

// aruMark is the record type of the open-ARU table: presence = the ARU
// exists in this epoch, which mark = whether it is frozen by
// PrepareARU.
type aruMark int

const (
	aruOpen aruMark = iota
	aruPrepared
)

// retireSet collects everything one publish window unshared from the
// next epoch. Each snapshot carries its own: while the epoch is the head
// its set is the current window's (d.ret), and it is drained back into
// the engine free lists, in place, when the epoch's refcount reaches
// zero.
type retireSet struct {
	blocks   retired[seg.BlockRec]
	lists    retired[seg.ListRec]
	arus     retired[aruMark]
	bufs     [][]byte
	builders []*seg.Builder
}

// empty reports whether r holds nothing (VerifyInternal: a pooled
// snapshot's set was drained).
func (r *retireSet) empty() bool {
	return len(r.blocks.nodes)+len(r.blocks.leaves)+len(r.lists.nodes)+len(r.lists.leaves)+
		len(r.arus.nodes)+len(r.arus.leaves)+len(r.bufs)+len(r.builders) == 0
}

// snapshot is one published epoch. All fields except ref are written
// once before the head swing and never mutated afterwards (next is
// written and ret filled under d.mu while the epoch is the head, and
// both are read only under d.mu by the purge path — readers never touch
// them).
type snapshot struct {
	// ref counts readers holding this epoch. It is the ONLY field a
	// reader may touch before revalidating the head, so the struct can
	// be pooled without resetting it: a straggler's +1/−1 pair on a
	// recycled struct nets zero on whatever incarnation it lands on.
	ref atomic.Int64
	// d is the engine, set once when the struct is allocated: readers
	// take what is fixed for its life (parameters, device, cache, live
	// counters) from it.
	d *LLD

	epoch   uint64
	closed  bool
	blocks  *pnode[seg.BlockRec]
	lists   *pnode[seg.ListRec]
	arus    *pnode[aruMark] // the open ARUs
	nBlocks int             // block-map size at publish (cycle guard bound)

	// The open segment under construction and the retired segments with
	// unwritten chunks. A builder's committed slots are immutable (a
	// block is added below everything added before, a chunk's entry
	// region and header never overlap data slots) and a builder a
	// snapshot names is recycled only through a retire-set, so lock-free
	// BlockData reads are safe for the slots this epoch's records
	// reference.
	curIdx uint32
	curBld *seg.Builder
	sealed []snapSeal

	// stats is d.stats frozen at publish: one coherent view of every
	// mu-guarded counter for this epoch (see Stats).
	stats Stats

	next *snapshot // younger epoch (purge-chain link)
	ret  retireSet // objects this epoch's successor unshared
}

// acquireSnap pins and returns the current epoch (nil only before the
// first publish, i.e. during construction, or after the head was
// cleared). Lock-free: load, incref, revalidate; if the head moved
// between the load and the incref the ref may have landed on a retired
// (or even recycled) snapshot, so undo and retry.
func (d *LLD) acquireSnap() *snapshot {
	for {
		s := d.head.Load()
		if s == nil {
			return nil
		}
		s.ref.Add(1)
		if d.head.Load() == s {
			return s
		}
		s.release()
	}
}

// acquireView is acquireSnap for a read in aru's view: a unit's reader
// first publishes the shadow edits endOp left pending, so it sees its
// own. A simple read stays lock-free: deferPublish leaves edits pending
// only where simple reads cannot see them.
func (d *LLD) acquireView(aru ARUID) *snapshot {
	if aru != seg.SimpleARU {
		d.publishPending()
	}
	return d.acquireSnap()
}

// publishPending publishes the shadow edits endOp left pending, if any.
func (d *LLD) publishPending() {
	if d.pubPending.Load() {
		d.mu.Lock()
		if d.pubPending.Load() {
			d.publishLocked()
		}
		d.mu.Unlock()
	}
}

// release drops one reader reference. The snapshot stays consultable —
// purge runs only under d.mu on retired epochs that have drained.
func (s *snapshot) release() {
	if s.ref.Add(-1) < 0 {
		panic("lld: snapshot refcount went negative")
	}
}

// publishLocked publishes the next epoch: the tries already hold every
// mutation of the window, so publishing is filling the snapshot struct
// and swinging the head. Callers hold d.mu and call it only at points
// where the committed state is op-consistent (operation boundaries, or
// the maintenance points flagged by d.pubSafe).
func (d *LLD) publishLocked() {
	old := d.head.Load()
	if f := d.params.Faults; f != nil && f.StaleHeadEvery > 0 && old != nil &&
		old.stats.ARUsCommitted != d.stats.ARUsCommitted {
		// Fault injection for the linearizability harness: silently
		// drop every n-th publish that carries a commit, serving simple
		// readers a stale epoch. The engine takes it for done (no
		// publish is left pending), but the window stays open (d.epoch
		// does not advance), so the next publish catches up.
		d.pubSkip++
		if d.pubSkip%f.StaleHeadEvery == 0 {
			d.pubPending.Store(false)
			return
		}
	}

	s, ok := d.freeSnaps.get()
	if !ok {
		s = &snapshot{d: d}
	}
	d.epoch++
	d.stats.EpochsPublished++
	s.epoch = d.epoch
	s.closed = d.closed
	s.blocks = d.blockTab.root
	s.lists = d.listTab.root
	s.arus = d.aruTab.root
	s.nBlocks = d.blockTab.n
	if d.builder != nil && d.curSeg >= 0 {
		s.curIdx = uint32(d.curSeg)
		s.curBld = d.builder
	} else {
		s.curIdx = segNone
		s.curBld = nil
	}
	s.sealed = s.sealed[:0]
	for _, e := range d.sealed {
		// A segment's chunks queue consecutively: one pin per segment.
		if e.img == nil || e.bld == d.builder {
			continue
		}
		if n := len(s.sealed); n == 0 || s.sealed[n-1].bld != e.bld {
			s.sealed = append(s.sealed, snapSeal{idx: uint32(e.idx), bld: e.bld})
		}
	}
	s.stats = d.stats
	if old != nil {
		d.retireDisplaced() // into old's set: see retireDisplaced
	}

	// The head swing is the epoch's linearization point: everything
	// above happened-before it (release store), and a reader that
	// revalidates against the new head sees all of it (acquire load).
	d.head.Store(s)
	// Only now is a pending shadow edit visible: a unit reader that
	// finds the flag clear must find its edit in the head it loads next.
	d.pubPending.Store(false)
	d.obs.Instant(obs.SpanEpochPublish, 0, s.epoch, uint64(s.nBlocks))

	if old == nil {
		// First publish (construction): no reader can hold an older
		// epoch, so whatever the bootstrap retired recycles directly.
		// From here on readers hold nodes: the tables copy what they edit.
		d.drainRet(d.ret)
		d.setRet(&s.ret)
		d.blockTab.published, d.listTab.published, d.aruTab.published = true, true, true
		d.snapOldest = s
		d.oldestEpoch.Store(s.epoch)
		return
	}
	// Retire the previous epoch: its set holds every object this window
	// unshared, and it purges once its readers (and all older ones) are
	// gone.
	old.next = s
	d.setRet(&s.ret)
	d.purgeLocked()
}

// purgeLocked frees retired epochs whose refcounts have drained,
// strictly oldest first. A pinned epoch stops the sweep — younger
// retire-sets may hold objects the pinned snapshot still exposes — and
// counts a purge retry; the next publish (or explicit purge) tries
// again. Caller holds d.mu.
func (d *LLD) purgeLocked() {
	head := d.head.Load()
	for s := d.snapOldest; s != nil && s != head; {
		if s.ref.Load() != 0 {
			d.stats.PurgeRetries++
			break
		}
		next := s.next
		d.freeSnapshot(s)
		d.snapOldest = next
		s = next
	}
	if d.snapOldest != nil {
		d.oldestEpoch.Store(d.snapOldest.epoch)
	}
	d.refillReserve()
}

// freeSnapshot drains a fully-retired epoch's retire-set into the
// engine free lists and pools the snapshot struct. ref is deliberately
// left alone (see the field comment). Caller holds d.mu.
func (d *LLD) freeSnapshot(s *snapshot) {
	d.drainRet(&s.ret)
	d.stats.SnapshotsPurged++
	d.obs.Instant(obs.SpanSnapPurge, 0, s.epoch, 0)
	s.epoch = 0
	s.closed = false
	s.blocks, s.lists, s.arus = nil, nil, nil
	s.nBlocks = 0
	s.curIdx, s.curBld = segNone, nil
	clear(s.sealed)
	s.sealed = s.sealed[:0]
	s.next = nil
	d.freeSnaps.put(s)
}

// drainRet recycles every object of a drained retire-set into the
// engine free lists, emptying the set in place. Caller holds d.mu.
func (d *LLD) drainRet(r *retireSet) {
	d.blockTab.drain(&r.blocks)
	d.listTab.drain(&r.lists)
	d.aruTab.drain(&r.arus)
	r.bufs = d.freeBufs.drain(r.bufs, func([]byte) {})
	r.builders = d.spareBuilders.drain(r.builders, (*seg.Builder).Reset)
}

// setRet installs r as the retire-set of the current window.
func (d *LLD) setRet(r *retireSet) {
	d.ret = r
	d.blockTab.ret, d.listTab.ret, d.aruTab.ret = &r.blocks, &r.lists, &r.arus
}

// ---------------------------------------------------------------------
// Snapshot read paths: the engine's own version search (leaf.resolve)
// against the frozen tries.
// ---------------------------------------------------------------------

// viewFor resolves the state Reads under aru should consult in this
// epoch, mirroring modeFor for the read-only case.
func (s *snapshot) viewFor(aru ARUID) (ARUID, error) {
	if aru == seg.SimpleARU {
		return seg.SimpleARU, nil
	}
	e := pmapGet(s.arus, uint64(aru))
	if e == nil {
		return 0, fmt.Errorf("%w: %d", ErrNoSuchARU, aru)
	}
	if e.persist == aruPrepared {
		return 0, fmt.Errorf("%w: %d", ErrARUPrepared, aru)
	}
	if s.d.params.Variant == VariantOld {
		return seg.SimpleARU, nil
	}
	return aru, nil
}

// read reads block b as seen from aru's state in this epoch into dst,
// which must be exactly one block long, under the engine's configured
// read semantics (paper §3.3), and counts the read.
func (s *snapshot) read(aru ARUID, b BlockID, dst []byte) error {
	if bs := s.d.params.Layout.BlockSize; len(dst) != bs {
		return fmt.Errorf("%w: Read buffer is %d bytes, block size is %d", ErrBadParam, len(dst), bs)
	}
	view, err := s.viewFor(aru)
	if err != nil {
		return err
	}
	s.d.live.Reads.Add(1)
	lf := pmapGet(s.blocks, uint64(b))
	if lf == nil {
		return fmt.Errorf("%w: %d", ErrNoSuchBlock, b)
	}
	var v *blockVer // the version to read; nil = the persistent one
	ok := true
	switch s.d.params.ReadSemantics {
	case ReadAnyShadow:
		// Option 1: the newest live alternative by write timestamp
		// across every state (the youngest version wins a tie), falling
		// back to persistent.
		for i := len(lf.vers) - 1; i >= 0; i-- {
			if c := &lf.vers[i]; !c.deleted && (v == nil || c.rec.TS > v.rec.TS) {
				v = c
			}
		}
		ok = v != nil || lf.hasPersist
	case ReadCommitted:
		v, ok = lf.resolve(seg.SimpleARU)
	default: // ReadOwnShadow
		v, ok = lf.resolve(view)
	}
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchBlock, b)
	}
	rec, data := &lf.persist, []byte(nil)
	if v != nil {
		rec, data = &v.rec, v.data
	}
	switch {
	case data != nil:
		copy(dst, data)
	case rec.HasData:
		return s.readPhys(rec.Seg, rec.Slot, dst)
	default:
		zeroFill(dst)
	}
	return nil
}

// readPhys serves (segIdx, slot) lock-free: from the epoch's pinned
// open-segment builder, from a pinned retired one, from the shared
// lock-free block cache, or from the device through the shared-read
// interface. Every step is mutex-free — the cache probe is one atomic
// load; the fill takes a recycled buffer from the cache's reserve with
// one Swap, publishes it as an immutable entry with a CAS and pushes
// what it displaced for the next publish to retire (pool.go) — so the
// path stays at zero mutex acquisitions while a cached read costs a
// memcpy instead of a device access. Filling from here is safe: the
// epoch pins segIdx against reuse, so the device bytes this fill
// publishes cannot be superseded until every epoch naming them has
// drained (and purgeSeg has run).
func (s *snapshot) readPhys(segIdx, slot uint32, dst []byte) error {
	if segIdx == s.curIdx && s.curBld != nil {
		copy(dst, s.curBld.BlockData(slot))
		return nil
	}
	for i := range s.sealed {
		if s.sealed[i].idx == segIdx {
			copy(dst, s.sealed[i].bld.BlockData(slot))
			return nil
		}
	}
	d := s.d
	if d.cache != nil {
		if d.cache.get(segIdx, slot, dst) {
			d.live.CacheHits.Add(1)
			return nil
		}
		d.live.CacheMisses.Add(1)
	}
	off := slotOff(d.params.Layout, segIdx, slot)
	var err error
	if d.devSh != nil {
		err = d.devSh.ReadAtShared(dst, off)
	} else {
		err = d.dev.ReadAt(dst, off)
	}
	if err != nil {
		return fmt.Errorf("lld: reading block at seg %d slot %d: %w", segIdx, slot, err)
	}
	if d.cache != nil && d.cache.put(segIdx, slot, dst) {
		d.live.CacheFillAllocs.Add(1)
	}
	return nil
}

// listBlocks walks lst in view order, with chain-break and cycle
// diagnostics (the cycle bound uses the block-map size frozen at
// publish).
func (s *snapshot) listBlocks(view ARUID, lst ListID) ([]BlockID, error) {
	lrec, ok := viewRec(s.lists, uint64(lst), view)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchList, lst)
	}
	var out []BlockID
	for cur := lrec.First; cur != NilBlock; {
		out = append(out, cur)
		crec, ok := viewRec(s.blocks, uint64(cur), view)
		if !ok {
			return nil, fmt.Errorf("lld: list %d chain broken at block %d", lst, cur)
		}
		if len(out) > s.nBlocks+1 {
			return nil, fmt.Errorf("lld: list %d contains a cycle", lst)
		}
		cur = crec.Succ
	}
	return out, nil
}

// listIDs returns the lists visible in view, ascending.
func (s *snapshot) listIDs(view ARUID) []ListID {
	var out []ListID
	pmapWalk(s.lists, func(lf *listLeaf) bool {
		if _, ok := lf.resolve(view); ok {
			out = append(out, ListID(lf.id))
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func zeroFill(dst []byte) {
	for i := range dst {
		dst[i] = 0
	}
}

// ---------------------------------------------------------------------
// Exported snapshot handles and lifecycle controls.
// ---------------------------------------------------------------------

// ErrSnapshotStale reports a snapshot handle used after the engine
// it was acquired from was invalidated (crash simulation) or the
// handle was released.
var ErrSnapshotStale = errors.New("lld: snapshot is stale (released, or the disk crashed or closed)")

// Snapshot is a pinned read-only view of one published epoch. It stays
// consultable — same answers, byte for byte — no matter how many
// commits, checkpoints or cleaner passes run after it was acquired,
// until Release. Holding one defers reclamation of everything its
// epoch references, so release promptly.
//
// A Snapshot must not be consulted after the underlying engine crashes
// (crash simulation calls Invalidate) or closes: reads then fail with
// ErrSnapshotStale rather than returning data the reopened disk may
// have already diverged from.
type Snapshot struct {
	s        *snapshot
	released atomic.Bool
}

// AcquireSnapshot pins the current epoch and returns a handle to it.
func (d *LLD) AcquireSnapshot() (*Snapshot, error) {
	if d.invalid.Load() {
		return nil, ErrSnapshotStale
	}
	d.publishPending()
	s := d.acquireSnap()
	if s == nil {
		return nil, ErrClosed
	}
	if s.closed {
		s.release()
		return nil, ErrClosed
	}
	d.openSnaps.Add(1)
	return &Snapshot{s: s}, nil
}

// OpenSnapshots returns the number of unreleased Snapshot handles on
// this engine.
func (d *LLD) OpenSnapshots() int64 { return d.openSnaps.Load() }

// Invalidate marks every outstanding snapshot handle stale. The crash
// simulators call it before tearing device state so a pre-crash
// snapshot cannot be consulted against a post-crash disk; it does not
// release the handles (their owners still must).
func (d *LLD) Invalidate() { d.invalid.Store(true) }

// Release unpins the epoch. Idempotent.
func (h *Snapshot) Release() {
	if h.released.CompareAndSwap(false, true) {
		h.s.d.openSnaps.Add(-1)
		h.s.release()
	}
}

// Epoch returns the epoch number this handle pins.
func (h *Snapshot) Epoch() uint64 { return h.s.epoch }

func (h *Snapshot) check() error {
	if h.released.Load() || h.s.d.invalid.Load() {
		return ErrSnapshotStale
	}
	return nil
}

// Read reads block b as seen from aru's state in the pinned epoch.
func (h *Snapshot) Read(aru ARUID, b BlockID, dst []byte) error {
	if err := h.check(); err != nil {
		return err
	}
	return h.s.read(aru, b, dst)
}

// ListBlocks returns the members of lst in the pinned epoch.
func (h *Snapshot) ListBlocks(aru ARUID, lst ListID) ([]BlockID, error) {
	if err := h.check(); err != nil {
		return nil, err
	}
	view, err := h.s.viewFor(aru)
	if err != nil {
		return nil, err
	}
	return h.s.listBlocks(view, lst)
}

// Lists returns the lists visible in the pinned epoch.
func (h *Snapshot) Lists(aru ARUID) ([]ListID, error) {
	if err := h.check(); err != nil {
		return nil, err
	}
	view, err := h.s.viewFor(aru)
	if err != nil {
		return nil, err
	}
	return h.s.listIDs(view), nil
}

// Stats returns the counters frozen into the pinned epoch, with the
// live ones overlaid as LLD.Stats does.
func (h *Snapshot) Stats() Stats {
	st := h.s.stats
	h.s.d.live.overlay(&st)
	return st
}
