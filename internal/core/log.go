package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"aru/internal/seg"
)

// tick returns the next logical timestamp. Every logged operation gets
// a distinct, strictly increasing timestamp; the stream of blocks is
// order-preserving and "this order ... is determined by the time of an
// operation" (paper §3.1).
func (d *LLD) tick() uint64 {
	t := d.ts
	d.ts++
	return t
}

// ensureRoom makes sure the open segment can still absorb extraBlocks
// data blocks and extraEntries summary entries on top of everything
// already accumulated — including the committed-state buffers that will
// materialize into it at seal time (one block and one entry each).
// When the segment cannot, its open chunk is sealed and written out and
// the segment is retired: what little a chunk's exact size may have left
// of it is not worth a write of its own.
func (d *LLD) ensureRoom(extraBlocks, extraEntries int) error {
	if d.curSeg < 0 {
		// Mounted on a full disk, or the last retirement found no
		// segment to open: the open segment is picked lazily, so a
		// disk that only needs reading mounts fine.
		next, err := d.pickSeg()
		if err != nil {
			return err
		}
		d.curSeg = next
		d.freeCache = d.reusableCount()
	}
	// pendingCommits holds commit and (larger) prepare records; size
	// for the larger kind so a queued prepare can never overflow the
	// seal.
	entryBytes := extraEntries*seg.MaxEntrySize +
		d.commBufBlocks*seg.EncodedSize(seg.KindWrite) +
		len(d.pendingCommits)*seg.EncodedSize(seg.KindPrepare)
	if d.builder.FitsBytes(extraBlocks+d.commBufBlocks, entryBytes) {
		return nil
	}
	// The inline path of a sealed chunk's life (groupcommit.go): seal and
	// write under the lock — a write, not a sync, which keeps builders
	// bounded on workloads that never flush — and leave the sync, and
	// with it the durable acks and the reuse of what the seal freed, to
	// the next round or a full log. A failed write keeps the entry queued
	// with its image for the next durability point to retry. The fresh
	// segment holds nothing yet, so it fits.
	d.sealChunk()
	err := d.retireSeg()
	if werr := d.writeQueued(); werr != nil {
		return werr
	}
	return err
}

// growthReserve is how many reusable segments must remain beyond the
// open one for a growth operation (Write, NewBlock, NewList) to
// proceed; below it they are refused with ErrNoSpace, so
// de-allocations can still log — and therefore free space — on an
// otherwise full disk.
const growthReserve = 1

// refuseGrowth refuses a growth operation that allocates blocks blocks and
// lists lists with ErrNoSpace: below the growth reserve, or if a base
// checkpoint of the tables would then not fit its region, which would
// fail every later checkpoint.
func (d *LLD) refuseGrowth(blocks, lists int) error {
	if d.freeCache < growthReserve {
		// The cache was computed at the last segment write, possibly while
		// freshly freed segments were still epoch-gated (segReusable); any
		// publish since then may have unlocked them, so rescan before
		// refusing growth.
		d.freeCache = d.reusableCount()
	}
	if d.freeCache < growthReserve {
		return fmt.Errorf("%w: growth reserve exhausted (delete data or clean)", ErrNoSpace)
	}
	if !d.params.Layout.CkptFits(d.blockTab.n+blocks, d.listTab.n+lists, 0) {
		return fmt.Errorf("%w: checkpoint tables full (%d blocks, %d lists)", ErrNoSpace, d.blockTab.n, d.listTab.n)
	}
	return nil
}

// appendEntry appends one summary entry to the current segment, writing
// the segment out first if the entry does not fit.
func (d *LLD) appendEntry(e seg.Entry) error {
	if err := d.ensureRoom(0, 1); err != nil {
		return err
	}
	d.builder.AddEntry(e)
	d.stats.EntriesLogged++
	return nil
}

// appendBlockWrite appends one block of data plus its write entry to
// the current segment (as a unit, so the entry always describes a slot
// of the same segment). It returns the physical location. Used by
// PrepareARU; client writes go through in-memory buffers instead, and
// the cleaner fills the reserved slot itself (relocateSegment).
func (d *LLD) appendBlockWrite(aru ARUID, ts uint64, id BlockID, lst ListID, data []byte) (segIdx, slot uint32, err error) {
	if err := d.ensureRoom(1, 1); err != nil {
		return 0, 0, err
	}
	copy(d.builder.ReserveBlock(), data)
	segIdx, slot = d.commitBlockWrite(aru, ts, id, lst)
	return segIdx, slot, nil
}

// commitBlockWrite adds the data slot the caller reserved in the open
// builder and filled (after ensureRoom(1, 1)) together with its write
// entry, and returns the physical location.
func (d *LLD) commitBlockWrite(aru ARUID, ts uint64, id BlockID, lst ListID) (segIdx, slot uint32) {
	slot = d.builder.CommitBlock()
	d.builder.AddEntry(seg.Entry{
		Kind:  seg.KindWrite,
		ARU:   aru,
		TS:    ts,
		Block: id,
		List:  lst,
		Slot:  slot,
	})
	d.stats.EntriesLogged++
	return uint32(d.curSeg), slot
}

// materializeCommitted moves every buffered committed-state version
// into the open segment, emitting its write entry. Versions belonging
// to a unit whose commit record is not yet logged keep their ARU tag,
// so recovery still treats the unit atomically; everything else is
// emitted on the merged stream (tag 0) at the record's current
// timestamp. Capacity is guaranteed by ensureRoom's accounting.
func (d *LLD) materializeCommitted() {
	pending := d.matScratch[:0]
	for i := len(d.commBlocks) - 1; i >= 0; i-- {
		id := d.commBlocks[i]
		ab := pmapGet(d.blockTab.root, uint64(id)).find(seg.SimpleARU)
		if ab.prevData != nil {
			// The stashed pre-unit version: the version an open unit
			// overwrote while its own commit record is still pending.
			// It is emitted on the merged stream so that, should only
			// this segment survive, the earlier unit stays complete.
			pending = append(pending, matItem{id: id, data: ab.prevData, ts: ab.prevTS, prev: true})
		}
		if ab.data != nil {
			tag := seg.SimpleARU
			if ab.commitTS == gateOpen {
				tag = ab.wtag
			}
			pending = append(pending, matItem{id: id, data: ab.data, ts: ab.rec.TS, tag: tag})
		}
	}
	// Write in logical-time order so blocks written together lie
	// together on disk — the stream of blocks is order-preserving
	// (paper §3.1), and sequential re-reads stay sequential. A chunk's
	// data slots are taken downward, so the latest block goes in first.
	slices.SortFunc(pending, func(a, b matItem) int { return cmp.Compare(a.ts, b.ts) })
	for i := len(pending) - 1; i >= 0; i-- {
		it := pending[i]
		slot := d.builder.AddBlock(it.data)
		d.builder.AddEntry(seg.Entry{
			Kind:  seg.KindWrite,
			ARU:   it.tag,
			TS:    it.ts,
			Block: it.id,
			Slot:  slot,
		})
		d.stats.EntriesLogged++
		d.stats.BlocksMaterialized++
		// The version gives its buffer up for the physical location, and
		// the buffer — the very bytes just written — becomes the cache
		// entry of that location: future reads of it must not pay a disk
		// access, and the hand-over must not pay a copy.
		ab := d.editBlock(it.id).find(seg.SimpleARU)
		if it.prev {
			d.stats.PrevVersionsEmitted++
			d.cacheAdopt(uint32(d.curSeg), slot, d.takeBuf(ab, &ab.prevData))
		} else {
			d.cacheAdopt(uint32(d.curSeg), slot, d.takeBuf(ab, &ab.data))
			d.setBlockPhys(ab, uint32(d.curSeg), slot, it.tag)
		}
	}
	// Keep the scratch capacity for the next seal; zero the elements so
	// recycled buffers are not retained through it.
	for i := range pending {
		pending[i] = matItem{}
	}
	d.matScratch = pending[:0]
}

// lastTS returns the timestamp that will be durable once the current
// segment is written: the logical clock has already advanced past every
// logged operation.
func (d *LLD) lastTS() uint64 {
	if d.ts == 0 {
		return 0
	}
	return d.ts - 1
}

// sealChunk seals what the open segment has accumulated since its last
// seal as the segment's next chunk, without touching the device — the one
// committed→persistent transition of paper §3.1, for every driver:
// buffered committed versions materialize, queued commit records are
// emitted, the chunk (still inside the segment's builder, directly below
// the chunk sealed before it) goes into an entry at the tail of d.sealed,
// the durable watermark advances and committed state covered by it is
// promoted. The segment stays open: writers go on adding below the chunk,
// in the same builder, so they never wait on the device. Promotion is an
// in-memory transition; durability is only acknowledged when a sync has
// covered the entry (retire). A no-op when nothing is buffered.
//
// Promotion may empty segments holding versions this seal supersedes.
// Until a sync covers the seal's write those segments must not be
// rewritten: a crash could keep the rewrite but lose this chunk,
// destroying data an earlier sync already guaranteed, and recovery —
// which rightly stops at the sequence hole — cannot put it back. The
// entry records them and they stay quarantined from reuse until it
// retires. Caller holds d.mu.
func (d *LLD) sealChunk() {
	if d.curSeg < 0 {
		// Nothing is ever buffered while no segment is open (ensureRoom
		// picks one before any append), so there is nothing to seal.
		return
	}
	d.materializeCommitted()
	for _, e := range d.pendingCommits {
		d.builder.AddEntry(e)
		d.stats.EntriesLogged++
	}
	commits := len(d.pendingCommits)
	d.pendingCommits = d.pendingCommits[:0]
	if d.builder.Empty() {
		return
	}
	e := d.getSealed()
	e.idx = d.curSeg
	e.seq = d.nextSeq
	e.bld, e.epoch = d.builder, d.bldEpoch
	// The chunk is one extent that ends in its header sector and lies
	// directly below the chunk sealed before it — the first at the
	// segment's end — so the one write that carries it ends in the header
	// whatever it holds, and overwrites nothing an earlier write put
	// there.
	e.img = d.builder.Seal(d.nextSeq)
	e.off = d.params.Layout.SegOff(d.curSeg) + int64(d.builder.Top())
	e.first = d.builder.Chunks() == 1
	e.commits = commits
	// The entry takes the stamps of the commits it carries and leaves
	// its own (pooled) backing array for the next ones.
	e.stamps, d.commitStamps = d.commitStamps, e.stamps
	d.sealed = append(d.sealed, e)
	d.segSeq[e.idx] = e.seq
	d.nextSeq++
	d.durableTS = d.lastTS()
	d.promote(e)
}

// seal is sealChunk at a durability point: the segment is retired only
// if the chunk filled it — it can no longer take one block and one entry.
// The error, if any, is retireSeg's. Caller holds d.mu.
func (d *LLD) seal() error {
	d.sealChunk()
	if d.curSeg >= 0 && !d.builder.Fits(1, 1) {
		return d.retireSeg()
	}
	return nil
}

// retireSeg closes the open segment, if it holds a chunk, and opens the
// next one on a spare builder. The old builder is handed to
// retireBuilder now if no queued entry holds an image in it, else when
// the last such entry releases its image (releaseImage); until then the
// read path finds it through the entry (heldBuilder). A builder no
// publish has seen goes straight back to the pool, which is what keeps a
// cleaner batch, opening several segments under one d.mu hold, from
// allocating: on the churn benchmark the engine allocates eight builders
// at setup and none after, and the pool peaks at two spares.
//
// The error is pickSeg's: no segment could be opened. The log then has no
// open segment, and ensureRoom re-picks lazily once space frees. Caller
// holds d.mu.
func (d *LLD) retireSeg() error {
	if d.curSeg < 0 || d.builder.Chunks() == 0 {
		return nil
	}
	d.segsSinceC++
	old, since := d.builder, d.bldEpoch
	d.builder, d.bldEpoch = d.takeBuilder(), d.epoch
	if d.heldBuilder(d.curSeg) == nil {
		d.retireBuilder(old, since)
	}
	// No open segment until the pick succeeds: a publish from pickSeg's
	// retry path must not pin the empty replacement builder under the
	// retired segment's index.
	d.curSeg = -1
	next, err := d.pickSeg()
	if err != nil {
		return err
	}
	d.curSeg = next
	d.freeCache = d.reusableCount()
	return nil
}

// endOp ends a mutating operation, which holds d.mu: it publishes, or
// only flags the edit pending if the operation was shadow-only
// (deferPublish), decides whether maintenance is due, releases d.mu and
// then runs it.
func (d *LLD) endOp() {
	if d.pubDefer {
		d.pubDefer = false
		d.pubPending.Store(true)
	} else {
		d.publishLocked()
	}
	ckpt, clean := d.maintDue()
	d.mu.Unlock()
	if ckpt || clean {
		d.maintain()
	}
}

// deferPublish is called at the success tail of BeginARU and of the
// operations that may edit only a unit's shadow state; shadowOnly says
// this one did and sealed nothing. It lets endOp skip the publish unless
// simple reads see shadows (ReadAnyShadow) or units run in the committed
// state (VariantOld). Only a read in the unit's view could then see the
// edit, and it publishes first (publishPending). Caller holds d.mu.
func (d *LLD) deferPublish(shadowOnly bool) {
	d.pubDefer = shadowOnly && d.params.Variant == VariantNew && d.params.ReadSemantics != ReadAnyShadow
}

// maintDue reports which maintenance is due: a checkpoint once
// CheckpointEvery segments have retired since the last one, the cleaner
// while fewer than CleanerLowWater segments are reusable; neither while
// an open unit pins the replay window (replayPinned) or once closed.
// freeCache is a lower bound of the reusable count (VerifyInternal
// checks it), so only a cached count below the mark takes a scan, which
// stops at the mark. Caller holds d.mu.
func (d *LLD) maintDue() (ckpt, clean bool) {
	if d.closed || d.replayPinned() {
		return false, false
	}
	ckpt = d.params.CheckpointEvery > 0 && d.segsSinceC >= d.params.CheckpointEvery
	if low := d.params.CleanerLowWater; d.freeCache < low {
		d.freeCache = d.reusableUpTo(low)
	}
	return ckpt, d.freeCache < d.params.CleanerLowWater
}

// replayPinned reports whether an open unit has logged entries a checkpoint
// would cut out of the replay window: a VariantOld unit logs its operations
// as they run, a prepared unit its redo. Others log only allocations, which
// recovery replays whatever the unit's fate (§3.3). Caller holds d.mu.
func (d *LLD) replayPinned() bool {
	return d.nPrepared != 0 || d.params.Variant == VariantOld && len(d.arus) != 0
}

// maintain runs, as the broker leader, the maintenance found due — a
// checkpoint round, then cleaner rounds until twice the low-water mark is
// reusable — deciding again first, since another leader may have run it.
// A failed round is not fatal: a later operation finds it due again.
func (d *LLD) maintain() {
	d.lead()
	defer d.unlead()
	d.mu.Lock()
	ckpt, clean := d.maintDue()
	d.mu.Unlock()
	if ckpt {
		if _, err := d.leadRound(nil); err != nil {
			return
		}
		d.mu.Lock()
		_, clean = d.maintDue()
		d.mu.Unlock()
	}
	if clean {
		d.clean(2 * d.params.CleanerLowWater)
	}
}

// segFreeable reports whether segment s holds no state the log still
// needs: it is not the current segment, holds no live persistent
// blocks, is not pinned by alternative records, and — if it was ever
// written — lies at or below the checkpoint watermark (so its summary
// entries are already subsumed by the checkpoint tables and recovery
// will not miss them). A segment with a queued chunk is never freeable:
// the chunk lies above the watermark (VerifyInternal checks it).
func (d *LLD) segFreeable(s int) bool {
	if s == d.curSeg {
		return false
	}
	if d.segPins[s] != 0 || d.segLive[s] != 0 {
		return false
	}
	return d.segSeq[s] == 0 || d.segSeq[s] <= d.ckptSeq
}

// segReusable reports whether segment s may be (re)written right now:
// freeable, released by the device sync covering the seal that emptied
// it, and drained of snapshot readers.
func (d *LLD) segReusable(s int) bool {
	if !d.segFreeable(s) {
		return false
	}
	if d.quarantined(s) {
		// The segment's last live blocks were superseded by a sealed
		// chunk no sync has covered yet: rewriting it now could leave a
		// crash state where the rewrite survives but the superseding
		// chunk does not (see sealChunk).
		return false
	}
	if d.oldestEpoch.Load() < d.segFreeEpoch[s] {
		// A published snapshot from before the segment's blocks were
		// freed could still read its old contents from the device;
		// rewriting it would tear those lock-free reads. The segment
		// frees once every epoch before segFreeEpoch[s] has purged.
		return false
	}
	return true
}

// reusableCount counts freeable segments — the space-accounting view.
// A segment gated only by the snapshot epoch or the reuse quarantine
// (segReusable) still counts: the one gate lifts at the next op
// boundary's publish, the other at the next device sync (which pickSeg
// forces when nothing else is left), neither needing any new write, so
// policy decisions (cleaner low-water and progress, the growth reserve)
// must not treat such a segment as occupied, or they over-clean and
// refuse growth the disk can absorb.
func (d *LLD) reusableCount() int {
	return d.reusableUpTo(d.params.Layout.NumSegs)
}

// reusableUpTo is reusableCount capped at limit: the scan stops at the
// limit-th freeable segment, which on a mostly empty log is early.
func (d *LLD) reusableUpTo(limit int) int {
	n := 0
	for s := 0; s < d.params.Layout.NumSegs && n < limit; s++ {
		if d.segFreeable(s) {
			n++
		}
	}
	return n
}

// pickSeg selects the next segment to fill: never-written segments
// first, then the oldest reusable one. Reusing a previously written
// segment drops any cached blocks of its old contents. If nothing is
// reusable, drained snapshot epochs are purged (releasing their
// segment pins) and the scan retried; if still nothing is, and sealed
// segments are queued, the queue is flushed — the sync lifts the reuse
// quarantine of everything they freed — and the scan retried once more
// before reporting ErrNoSpace. That flush is the one device sync left
// under d.mu: the point where a full log pushes back on its writers.
func (d *LLD) pickSeg() (int, error) {
	best := d.scanReusable()
	if best == -2 {
		// Between operations (a maintenance round), publish first:
		// segments freed in the current window are stamped past the live
		// epoch and only unlock once a fresh epoch is published and
		// drained. Mid-op, purging drained epochs is all that is safe.
		if d.pubSafe {
			d.publishLocked()
		} else {
			d.purgeLocked()
		}
		best = d.scanReusable()
	}
	if best == -2 && len(d.sealed) > 0 && !d.brokerBusy() && d.flushQueue() == nil {
		best = d.scanReusable()
	}
	if best < 0 {
		return 0, ErrNoSpace
	}
	if d.segSeq[best] != 0 && d.cache != nil {
		d.cache.purgeSeg(uint32(best))
	}
	return best, nil
}

// scanReusable returns the best segment to fill next (-2 if none):
// never-written segments first, then the oldest reusable one.
func (d *LLD) scanReusable() int {
	best, bestSeq := -2, ^uint64(0)
	for s := 0; s < d.params.Layout.NumSegs; s++ {
		if !d.segReusable(s) {
			continue
		}
		if d.segSeq[s] == 0 {
			return s
		}
		if d.segSeq[s] < bestSeq {
			best, bestSeq = s, d.segSeq[s]
		}
	}
	return best
}

// promote moves every committed record whose commit timestamp is now
// durable into the persistent state (the committed→persistent
// transition of paper §3.1, triggered by writes to disk). The chains
// are walked newest first and the survivors end up in reverse order —
// materialization order among equal timestamps, and so the log's
// bytes, depend on it. e is the entry of the seal that advanced the
// watermark; it records the segments the promotion empties.
func (d *LLD) promote(e *sealedSeg) {
	w := d.durableTS
	slices.Reverse(d.commBlocks)
	keepB := d.commBlocks[:0]
	for _, id := range d.commBlocks {
		lf := d.editBlock(id)
		if ab := lf.find(seg.SimpleARU); ab.commitTS <= w && ab.data == nil {
			d.promoteBlock(lf, ab, e)
		} else {
			keepB = append(keepB, id)
		}
	}
	d.commBlocks = keepB

	slices.Reverse(d.commLists)
	keepL := d.commLists[:0]
	for _, id := range d.commLists {
		lf := d.editList(id)
		if al := lf.find(seg.SimpleARU); al.commitTS <= w {
			d.promoteList(lf, al)
		} else {
			keepL = append(keepL, id)
		}
	}
	d.commLists = keepL
}

// promoteBlock installs ab as the persistent version of its block (or
// removes the persistent version if ab is a deletion) and drops ab from
// the window-owned leaf lf. A segment that loses its last live block
// here goes into e.frees, quarantined from reuse until e retires.
func (d *LLD) promoteBlock(lf *blockLeaf, ab *blockVer, e *sealedSeg) {
	d.stats.RecordsPromoted++
	d.dirtyBlocks.mark(BlockID(lf.id))
	if lf.hasPersist && lf.persist.HasData {
		s := int(lf.persist.Seg)
		d.segFreeEpoch[s] = d.epoch + 1
		if d.dropLive(lf.persist) {
			e.frees = append(e.frees, s)
		}
	}
	lf.hasPersist = !ab.deleted
	lf.persist = seg.BlockRec{}
	if !ab.deleted {
		lf.persist = ab.rec
		if ab.rec.HasData {
			d.addLive(BlockID(lf.id), ab.rec)
		}
	}
	d.dropBlockVer(lf, ab)
}

// ownIdx is the index of slot's block in its segment's owner table. The
// data slots of the chunks in a segment do not overlap, so no two live
// blocks of a segment share one.
func (d *LLD) ownIdx(slot uint32) int { return seg.SlotOff(slot) / d.params.Layout.BlockSize }

// addLive counts block id's persistent version, at rec's data location,
// live in its segment and enters it in the segment's owner table.
func (d *LLD) addLive(id BlockID, rec seg.BlockRec) {
	s := rec.Seg
	if d.segOwn[s] == nil {
		tab, ok := d.freeOwn.get()
		if !ok {
			tab = make([]BlockID, d.params.Layout.SegBytes/d.params.Layout.BlockSize)
		}
		d.segOwn[s] = tab
	}
	d.segOwn[s][d.ownIdx(rec.Slot)] = id
	d.segLive[s]++
}

// dropLive undoes addLive for the persistent version at rec's data
// location and reports whether that emptied its segment.
func (d *LLD) dropLive(rec seg.BlockRec) (emptied bool) {
	s := rec.Seg
	d.segOwn[s][d.ownIdx(rec.Slot)] = NilBlock
	if d.segLive[s]--; d.segLive[s] != 0 {
		return false
	}
	d.freeOwn.put(d.segOwn[s])
	d.segOwn[s] = nil
	return true
}

// promoteList installs al as the persistent version of its list.
func (d *LLD) promoteList(lf *listLeaf, al *listVer) {
	d.stats.RecordsPromoted++
	d.dirtyLists.mark(ListID(lf.id))
	lf.hasPersist = !al.deleted
	lf.persist = seg.ListRec{}
	if !al.deleted {
		lf.persist = al.rec
	}
	d.dropListVer(lf, seg.SimpleARU)
}

// readPhys reads the block stored at (segIdx, slot) into dst for the
// cleaner (client reads go through snapshot.readPhys): from the read
// cache, else from the device. The cleaner reads only blocks of victims
// cleanable accepted, and such a victim is neither the open segment nor
// one with a queued chunk (its newest chunk is at or below ckptSeq), so
// no builder holds the block. A miss does not fill the cache: the
// cleaner reads a block to move it, so the key names a location that
// dies at the next promote, and an entry under it would only evict one
// a client can still hit.
func (d *LLD) readPhys(segIdx, slot uint32, dst []byte) error {
	if d.cache != nil {
		if d.cache.get(segIdx, slot, dst) {
			d.live.CacheHits.Add(1)
			return nil
		}
		d.live.CacheMisses.Add(1)
	}
	if err := d.dev.ReadAt(dst, slotOff(d.params.Layout, segIdx, slot)); err != nil {
		return fmt.Errorf("lld: reading block at seg %d slot %d: %w", segIdx, slot, err)
	}
	return nil
}

// slotOff returns the device offset of data slot slot of segment segIdx.
func slotOff(l seg.Layout, segIdx, slot uint32) int64 {
	return l.SegOff(int(segIdx)) + int64(seg.SlotOff(slot))
}

// physKey identifies a cached block by physical location.
type physKey struct {
	seg, slot uint32
}

// blockCache is a lock-free, fully associative cache of persistent
// block contents, shared by the locked engine paths and the MVCC
// snapshot readers (DESIGN.md §16).
//
// Layout: an open-addressed hash table of atomic entry pointers kept
// at a low load factor (cacheOver slots per cached block, probes
// bounded at cacheProbe), plus a FIFO ring of keys that bounds
// residency at the configured capacity — a fill claims the next ring
// position with one atomic add and evicts whatever key it displaces.
// Every operation is mutexes-free: a probe is a handful of atomic
// loads, a fill is an atomic swap on the ring plus an atomic store
// into the table. That keeps the snapshot read path at zero mutex
// acquisitions (the property the readscale gate asserts), and — unlike
// a set-associative table — a working set up to the capacity stays
// fully resident, which the modeled fig5/fig6 read phases depend on:
// the striped LRU this replaces served them entirely from memory, and
// conflict misses would each cost a modeled disk access.
//
// Concurrent fills from snapshot readers are safe without further
// synchronization: entries are immutable, every slot transition is an
// atomic swap or CAS, and a lost race costs at most one cache entry
// (strictly weaker residency, never a wrong answer). An entry owns its
// buffer: the engine hands materialized buffers over instead of copying
// them (adopt), and gets each displaced one back exactly once, from the
// call whose CAS removed the entry (pool.go has the rule). Staleness is
// ruled out by the epoch discipline — a reader fills (seg, slot) only
// while its epoch pins that segment against reuse (segFreeEpoch), and
// purgeSeg runs under d.mu at reuse time, before any record naming
// the segment's new contents is published, so no published record can
// lead a reader to a pre-reuse entry.
type blockCache struct {
	slots  []atomic.Pointer[cacheEnt] // power-of-two open-addressed table
	mask   uint32
	ring   []atomic.Uint64 // FIFO of packed keys; 0 = empty
	cursor atomic.Uint64   // next ring position to claim
}

const (
	// cacheOver is the table-slot overprovisioning factor. At load
	// factor 1/cacheOver a cacheProbe-long window essentially never
	// fills, so fills are effectively never dropped below capacity.
	cacheOver = 4
	// cacheProbe bounds the linear-probe window. Lookups scan the
	// whole window (evictions punch holes, so a nil slot cannot end a
	// probe); hits usually land within the first couple of slots.
	cacheProbe = 16
)

type cacheEnt struct {
	key  physKey
	data []byte // owned by the entry, immutable once it is published
}

// packKey biases the key by one so the ring's zero value means empty
// (seg 0, slot 0 is a valid physical location).
func packKey(k physKey) uint64 { return uint64(k.seg)<<32 | uint64(k.slot) + 1 }

func unpackKey(p uint64) physKey {
	p--
	return physKey{seg: uint32(p >> 32), slot: uint32(p)}
}

func newBlockCache(capBlocks int) *blockCache {
	if capBlocks <= 0 {
		return nil
	}
	n := 1
	for n < capBlocks*cacheOver {
		n <<= 1
	}
	return &blockCache{
		slots: make([]atomic.Pointer[cacheEnt], n),
		mask:  uint32(n - 1),
		ring:  make([]atomic.Uint64, capBlocks),
	}
}

// hash spreads the low, strongly patterned seg/slot bits (Fibonacci).
func cacheHash(k physKey) uint32 {
	return (k.seg*0x9e3779b9 + k.slot) * 0x9e3779b9
}

func (c *blockCache) get(segIdx, slot uint32, dst []byte) bool {
	k := physKey{segIdx, slot}
	h := cacheHash(k)
	for i := uint32(0); i < cacheProbe; i++ {
		if e := c.slots[(h+i)&c.mask].Load(); e != nil && e.key == k {
			copy(dst, e.data)
			return true
		}
	}
	return false
}

// adopt makes buf, which the caller gives up and nobody writes again,
// the entry for (segIdx, slot). It returns the buffers that left the
// cache through this call — at most two: the ring victim's, and a
// replaced entry's of the same key, or buf itself when the fill was
// dropped. An entry's buffer is returned by the one call whose CAS
// took the entry out of the table, so no buffer is ever returned
// twice; what becomes of it is the caller's business (pool.go).
func (c *blockCache) adopt(segIdx, slot uint32, buf []byte) (out1, out2 []byte) {
	k := physKey{segIdx, slot}
	ent := &cacheEnt{key: k, data: buf}

	// Claim a ring position and evict whatever key it held: residency
	// never exceeds the ring's capacity (a concurrent duplicate of the
	// same key only tightens that bound — its earlier ring entry
	// evicts the key sooner, never late).
	pos := c.cursor.Add(1) - 1
	if old := c.ring[pos%uint64(len(c.ring))].Swap(packKey(k)); old != 0 && old != packKey(k) {
		out1 = c.drop(unpackKey(old))
	}

	h := cacheHash(k)
	firstNil := -1
	for i := uint32(0); i < cacheProbe; i++ {
		p := &c.slots[(h+i)&c.mask]
		e := p.Load()
		if e == nil {
			if firstNil < 0 {
				firstNil = int(i)
			}
			continue
		}
		if e.key == k {
			if p.CompareAndSwap(e, ent) { // refresh in place
				return out1, e.data
			}
			return out1, buf // raced with an eviction of e: the fill is dropped
		}
	}
	// CAS so a racing fill of a different key into the same hole is not
	// clobbered; on failure the fill is simply dropped.
	if firstNil >= 0 && c.slots[(h+uint32(firstNil))&c.mask].CompareAndSwap(nil, ent) {
		return out1, nil
	}
	return out1, buf
}

// put is the reader-side fill: snapshot readers run outside d.mu, own
// no pooled buffer and must never touch a retire-set, so they copy the
// block in and leave whatever the fill displaces to the garbage
// collector.
func (c *blockCache) put(segIdx, slot uint32, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	c.adopt(segIdx, slot, cp)
}

// drop removes k's table entry and returns its buffer (eviction; one
// CAS attempt — a racing replacement of the same slot may keep it,
// costing residency only, and nil is returned then).
func (c *blockCache) drop(k physKey) []byte {
	h := cacheHash(k)
	for i := uint32(0); i < cacheProbe; i++ {
		p := &c.slots[(h+i)&c.mask]
		if e := p.Load(); e != nil && e.key == k {
			if p.CompareAndSwap(e, nil) {
				return e.data
			}
			return nil
		}
	}
	return nil
}

// purgeSeg drops all cached blocks of one segment (called under d.mu
// when the segment is about to be rewritten with new contents). Stale
// ring entries for the purged keys remain and later evict nothing. The
// dropped buffers are left to the garbage collector: a purge gives up
// to a segment's worth back at once with no fill to take them, and on
// the free list they would only pin that burst.
func (c *blockCache) purgeSeg(segIdx uint32) {
	for i := range c.slots {
		if e := c.slots[i].Load(); e != nil && e.key.seg == segIdx {
			c.slots[i].CompareAndSwap(e, nil)
		}
	}
}
