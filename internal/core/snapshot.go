package core

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"aru/internal/disk"
	"aru/internal/obs"
	"aru/internal/seg"
)

// Epoch-based MVCC read path (DESIGN.md §16).
//
// Every committed mutation publishes a new epoch: an immutable
// snapshot of the block-map, the list-table and the open-ARU set
// behind a single atomic head pointer. Readers do one atomic load plus
// a refcount increment and never touch d.mu. The tries (epochmap.go)
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
// next epoch. It is attached to the previous head at publish time and
// drained back into the engine free lists when that epoch's refcount
// reaches zero.
type retireSet struct {
	blocks   retired[seg.BlockRec]
	lists    retired[seg.ListRec]
	arus     retired[aruMark]
	bufs     [][]byte
	builders []*seg.Builder
}

// snapshot is one published epoch. All fields except ref are written
// once before the head swing and never mutated afterwards (next and
// ret are written under d.mu when the epoch is retired, and only read
// under d.mu by the purge path — readers never touch them).
type snapshot struct {
	// ref counts readers holding this epoch. It is the ONLY field a
	// reader may touch before revalidating the head, so the struct can
	// be pooled without resetting it: a straggler's +1/−1 pair on a
	// recycled struct nets zero on whatever incarnation it lands on.
	ref atomic.Int64

	epoch   uint64
	closed  bool
	blocks  *pnode[seg.BlockRec]
	lists   *pnode[seg.ListRec]
	arus    *pnode[aruMark] // the open ARUs
	nBlocks int             // block-map size at publish (cycle guard bound)
	variant Variant
	readSem ReadSemantics
	bs      int

	// Physical-read plumbing: the open segment under construction, the
	// retired segments with unwritten chunks, and the device. A builder's
	// committed slots are immutable (a block is added below everything
	// added before, a chunk's entry region and header never overlap data
	// slots) and a builder a snapshot names is recycled only through a
	// retire-set, so lock-free BlockData reads are safe for the slots
	// this epoch's records reference.
	curIdx uint32
	curBld *seg.Builder
	sealed []snapSeal
	dev    disk.Disk
	devSh  sharedReader
	layout seg.Layout
	cache  *blockCache // shared lock-free read cache (may be nil)
	cnt    *lldStats   // live atomic counters, for hit/miss accounting

	// stats is the counter snapshot taken at publish: one coherent
	// view of every mu-guarded counter for this epoch (see Stats).
	stats Stats

	next *snapshot  // younger epoch (purge-chain link)
	ret  *retireSet // objects this epoch's successor unshared
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
	if f := d.params.Faults; f != nil && f.StaleHeadEvery > 0 && d.head.Load() != nil {
		// Fault injection for the linearizability harness: silently
		// drop every n-th publish, serving readers a stale epoch. The
		// window stays open (d.epoch does not advance), so the
		// following publish catches up.
		d.pubSkip++
		if d.pubSkip%f.StaleHeadEvery == 0 {
			return
		}
	}
	old := d.head.Load()

	s := d.takeSnap()
	d.epoch++
	d.stats.EpochsPublished.Add(1)
	s.epoch = d.epoch
	s.closed = d.closed
	s.blocks = d.blockTab.root
	s.lists = d.listTab.root
	s.arus = d.aruTab.root
	s.nBlocks = d.blockTab.n
	s.variant = d.params.Variant
	s.readSem = d.params.ReadSemantics
	s.bs = d.params.Layout.BlockSize
	s.layout = d.params.Layout
	s.dev = d.dev
	s.devSh = d.devSh
	s.cache = d.cache
	s.cnt = &d.stats
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
	s.stats = d.stats.snapshot()
	s.next = nil
	s.ret = nil

	// The head swing is the epoch's linearization point: everything
	// above happened-before it (release store), and a reader that
	// revalidates against the new head sees all of it (acquire load).
	d.head.Store(s)
	d.obs.Instant(obs.SpanEpochPublish, 0, s.epoch, uint64(s.nBlocks))

	if old == nil {
		// First publish (construction): no reader can hold an older
		// epoch, so whatever the bootstrap retired recycles directly.
		// From here on readers hold nodes: the tables copy what they edit.
		d.drainRet(d.ret)
		d.blockTab.published, d.listTab.published, d.aruTab.published = true, true, true
		d.snapOldest = s
		d.oldestEpoch.Store(s.epoch)
		return
	}
	// Retire the previous epoch: it owns every object this window
	// unshared, and purges once its readers (and all older ones) are
	// gone.
	old.ret = d.ret
	old.next = s
	d.setRet(d.takeRet())
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
			d.stats.PurgeRetries.Add(1)
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
}

// freeSnapshot drains a fully-retired epoch's retire-set into the
// engine free lists and pools the snapshot struct. ref is deliberately
// left alone (see the field comment). Caller holds d.mu.
func (d *LLD) freeSnapshot(s *snapshot) {
	if s.ret != nil {
		d.drainRet(s.ret)
		d.putRet(s.ret)
	}
	d.stats.SnapshotsPurged.Add(1)
	d.obs.Instant(obs.SpanSnapPurge, 0, s.epoch, 0)
	s.epoch = 0
	s.closed = false
	s.blocks, s.lists, s.arus = nil, nil, nil
	s.nBlocks = 0
	s.curIdx, s.curBld = segNone, nil
	for i := range s.sealed {
		s.sealed[i] = snapSeal{}
	}
	s.sealed = s.sealed[:0]
	s.dev, s.devSh = nil, nil
	s.cache, s.cnt = nil, nil
	s.stats = Stats{}
	s.next, s.ret = nil, nil
	if len(d.freeSnaps) < maxFreeSnaps {
		d.freeSnaps = append(d.freeSnaps, s)
	}
}

// drainRet recycles every object of a drained retire-set into the
// engine free lists, emptying the set in place. Caller holds d.mu.
func (d *LLD) drainRet(r *retireSet) {
	d.blockTab.drain(&r.blocks)
	d.listTab.drain(&r.lists)
	d.aruTab.drain(&r.arus)
	for i, b := range r.bufs {
		d.recycleBuf(b)
		r.bufs[i] = nil
	}
	r.bufs = r.bufs[:0]
	for i, b := range r.builders {
		d.recycleBuilder(b)
		r.builders[i] = nil
	}
	r.builders = r.builders[:0]
}

// setRet installs r as the retire-set of the current window.
func (d *LLD) setRet(r *retireSet) {
	d.ret = r
	d.blockTab.ret, d.listTab.ret, d.aruTab.ret = &r.blocks, &r.lists, &r.arus
}

// Retire-set pools. All caller-holds-d.mu.

func (d *LLD) takeRet() *retireSet {
	if n := len(d.spareRets); n > 0 {
		r := d.spareRets[n-1]
		d.spareRets[n-1] = nil
		d.spareRets = d.spareRets[:n-1]
		return r
	}
	return new(retireSet)
}

func (d *LLD) putRet(r *retireSet) {
	if len(d.spareRets) < maxFreeRets {
		d.spareRets = append(d.spareRets, r)
	}
}

func (d *LLD) takeSnap() *snapshot {
	if n := len(d.freeSnaps); n > 0 {
		s := d.freeSnaps[n-1]
		d.freeSnaps[n-1] = nil
		d.freeSnaps = d.freeSnaps[:n-1]
		return s
	}
	return new(snapshot)
}

const (
	maxFreeRets  = 8
	maxFreeSnaps = 16
)

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
	if s.variant == VariantOld {
		return seg.SimpleARU, nil
	}
	return aru, nil
}

// readBlock reads b as seen from view under this epoch's configured
// read semantics (paper §3.3); view must come from viewFor.
func (s *snapshot) readBlock(view ARUID, b BlockID, dst []byte) error {
	lf := pmapGet(s.blocks, uint64(b))
	if lf == nil {
		return fmt.Errorf("%w: %d", ErrNoSuchBlock, b)
	}
	var v *blockVer // the version to read; nil = the persistent one
	ok := true
	switch s.readSem {
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
// load, the fill one atomic store of an immutable entry — so the path
// stays at zero mutex acquisitions while a cached read costs a memcpy
// instead of a device access. Filling from here is safe: the epoch
// pins segIdx against reuse, so the device bytes this fill publishes
// cannot be superseded until every epoch naming them has drained (and
// purgeSeg has run).
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
	if s.cache != nil {
		if s.cache.get(segIdx, slot, dst) {
			s.cnt.CacheHits.Add(1)
			return nil
		}
		s.cnt.CacheMisses.Add(1)
	}
	off := slotOff(s.layout, segIdx, slot)
	var err error
	if s.devSh != nil {
		err = s.devSh.ReadAtShared(dst, off)
	} else {
		err = s.dev.ReadAt(dst, off)
	}
	if err != nil {
		return fmt.Errorf("lld: reading block at seg %d slot %d: %w", segIdx, slot, err)
	}
	if s.cache != nil {
		s.cache.put(segIdx, slot, dst)
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

// liveSnapshotHandles counts outstanding exported Snapshot handles
// process-wide; the test suites fail on exit if it is non-zero (a
// leaked handle pins an epoch, and everything it retired, forever).
var liveSnapshotHandles atomic.Int64

// LiveSnapshots returns the number of exported snapshot handles not
// yet released, across every LLD in the process. Test hygiene hook.
func LiveSnapshots() int64 { return liveSnapshotHandles.Load() }

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
	d        *LLD
	s        *snapshot
	released atomic.Bool
}

// AcquireSnapshot pins the current epoch and returns a handle to it.
func (d *LLD) AcquireSnapshot() (*Snapshot, error) {
	if d.invalid.Load() {
		return nil, ErrSnapshotStale
	}
	s := d.acquireSnap()
	if s == nil {
		return nil, ErrClosed
	}
	if s.closed {
		s.release()
		return nil, ErrClosed
	}
	d.openSnaps.Add(1)
	liveSnapshotHandles.Add(1)
	return &Snapshot{d: d, s: s}, nil
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
		h.s.release()
		h.d.openSnaps.Add(-1)
		liveSnapshotHandles.Add(-1)
	}
}

// Epoch returns the epoch number this handle pins.
func (h *Snapshot) Epoch() uint64 { return h.s.epoch }

func (h *Snapshot) check() error {
	if h.released.Load() || h.d.invalid.Load() {
		return ErrSnapshotStale
	}
	return nil
}

// Read reads block b as seen from aru's state in the pinned epoch.
func (h *Snapshot) Read(aru ARUID, b BlockID, dst []byte) error {
	if err := h.check(); err != nil {
		return err
	}
	if len(dst) != h.s.bs {
		return fmt.Errorf("%w: Read buffer is %d bytes, block size is %d", ErrBadParam, len(dst), h.s.bs)
	}
	view, err := h.s.viewFor(aru)
	if err != nil {
		return err
	}
	h.d.stats.Reads.Add(1)
	return h.s.readBlock(view, b, dst)
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

// Stats returns the epoch's coherent counter snapshot (see LLD.Stats
// for which counters are epoch-coherent).
func (h *Snapshot) Stats() Stats {
	return h.s.stats
}
