package core

import (
	"cmp"
	"fmt"
	"slices"

	"aru/internal/obs"
	"aru/internal/seg"
)

// Clean runs the segment cleaner until at least target segments are
// reusable (or no further progress is possible) and returns the number
// of segments it reclaimed. Cleaning relocates live blocks of victim
// segments to the head of the log, then checkpoints so the victims
// become reusable. While a unit pins the replay window (replayPinned)
// the first round's checkpoint refuses, and Clean returns its error.
func (d *LLD) Clean(target int) (int, error) {
	d.lead()
	defer d.unlead()
	if d.isClosed() {
		return 0, ErrClosed
	}
	return d.clean(target)
}

// clean runs cleaner rounds as the broker leader until target segments
// are reusable: a batch of victims relocated under d.mu, then a
// maintenance round (leadRound) whose checkpoint frees them. The first
// failure stops it, and it returns that error. Progress is counted in
// segments a pick can reuse (reclaimable), not in the free set: a victim
// freed while a snapshot pins an older epoch stays gated until its
// release, and relocating into the last reusable segments for it would
// run the log out of space.
func (d *LLD) clean(target int) (cleaned int, err error) {
	sp := d.obs.Start(obs.SpanCleanerPass, obs.SpanContext{})
	d.mu.Lock()
	free := d.reclaimable()
	d.mu.Unlock()
	for free < target {
		var n int
		d.mu.Lock()
		d.pubSafe = true // between operations: a pick may publish
		n, err = d.relocateBatch()
		d.pubSafe = false
		d.mu.Unlock()
		if n == 0 || err != nil {
			break
		}
		if _, err = d.leadRound(nil); err != nil {
			break
		}
		cleaned += n
		before := free
		d.mu.Lock()
		d.stats.SegmentsCleaned += int64(n)
		free = d.reclaimable()
		d.mu.Unlock()
		if free <= before {
			// No net space gained: the victims are so full that
			// relocation consumes as much as it frees, or a held
			// snapshot keeps them from reuse. Stop rather than ping-pong
			// live data forever.
			break
		}
	}
	sp.End(0, uint64(cleaned), 0)
	return cleaned, err
}

// reclaimable counts the free set's segments a pick can reuse once the
// round's sync lands (segReusable bar the reuse quarantine): those no
// reader still pins an epoch older than their segFreeEpoch for. Without
// a pinned epoch the next publish drains every one. Caller holds d.mu.
func (d *LLD) reclaimable() int {
	if d.openSnaps.Load() == 0 {
		// Only held snapshots pin an epoch for long; a lock-free read
		// drains in microseconds.
		return len(d.free)
	}
	pin := d.epoch + 1
	for s := d.snapOldest; s != nil; s = s.next {
		if s.ref.Load() != 0 {
			pin = s.epoch
			break
		}
	}
	n := 0
	for _, s := range d.free {
		if d.segFreeEpoch[s] <= pin {
			n++
		}
	}
	return n
}

// relocateBatch relocates up to eight victims, one cleaner round's worth,
// and returns how many. Caller holds d.mu; cleanable skips units' blocks.
func (d *LLD) relocateBatch() (n int, err error) {
	visited := d.cleanVisited
	clear(visited)
	for ; n < 8; n++ {
		victim, ok := d.pickVictim(visited)
		if !ok {
			break
		}
		visited[victim] = true
		if err := d.relocateSegment(victim); err != nil {
			return n, err
		}
	}
	return n, nil
}

// victimCandidate reports whether segment s is an old (checkpoint-
// covered, so no chunk of it awaits a write or a sync), unpinned,
// written segment that still holds live blocks.
func (d *LLD) victimCandidate(s int) bool {
	return s != d.curSeg && d.segSeq[s] != 0 && d.segSeq[s] <= d.ckptSeq &&
		d.segPins[s] == 0 && d.segLive[s] != 0
}

// cleanable reports whether segment s is a valid cleaning victim: a
// victimCandidate whose live blocks are all relocatable (its persistent
// record is the block's only version — relocating a block with pending
// shadow or committed updates could resurrect stale data after a crash).
func (d *LLD) cleanable(s int) bool {
	if !d.victimCandidate(s) {
		return false
	}
	for _, id := range d.segOwn[s] {
		if id != NilBlock && len(pmapGet(d.blockTab.root, uint64(id)).vers) != 0 {
			return false
		}
	}
	return true
}

// liveIn returns block id's entry if its persistent version still
// holds data in segment s, else nil.
func (d *LLD) liveIn(s int, id BlockID) *blockLeaf {
	lf := pmapGet(d.blockTab.root, uint64(id))
	if lf == nil || !lf.hasPersist || !lf.persist.HasData || lf.persist.Seg != uint32(s) {
		return nil
	}
	return lf
}

// pickVictim returns the next segment to clean: the cleanable one with
// the fewest live blocks, the lower index first among equals, skipping
// those relocated this round. Greedy, because survivors share the head
// with fresh writes: an age-weighted (cost-benefit) order cannot keep
// hot and cold blocks apart, and on churn it wrote more device bytes per
// user byte in 8 of 8 pairs.
//
// A segment cleanable refuses is passed over for this pick only: a sync
// inside the round can promote its pending versions, and the next pick
// may then take it. Selecting the round's victims once, or skipping a
// refused segment for the whole round, changes which states a crash can
// leave: TestEnumerationDeterminism's maint seed 2 goes from 709 to 797.
func (d *LLD) pickVictim(exclude map[int]bool) (int, bool) {
	cands := d.cleanCands[:0]
	for s := 0; s < d.params.Layout.NumSegs; s++ {
		if !exclude[s] && d.victimCandidate(s) {
			cands = append(cands, s)
		}
	}
	d.cleanCands = cands
	// The best candidate is one pass away, and nearly always cleanable,
	// so sorting the rest would be wasted.
	for len(cands) > 0 {
		best := 0
		for i := 1; i < len(cands); i++ {
			a, b := cands[i], cands[best]
			if cmp.Or(cmp.Compare(d.segLive[a], d.segLive[b]), cmp.Compare(a, b)) < 0 {
				best = i
			}
		}
		if s := cands[best]; d.cleanable(s) {
			return s, true
		}
		cands[best] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	return 0, false
}

// relocateSegment copies every block live in segment s — those its owner
// table names — to the head of the log as a fresh committed write. The
// logical contents of every block and list are unchanged; only physical
// placement moves.
func (d *LLD) relocateSegment(s int) error {
	// Deterministic order keeps runs reproducible. Data slots are taken
	// downward, so going down the identifiers lays the blocks out in
	// ascending order on the device, the order they were allocated in.
	ids := d.cleanIDs[:0]
	for _, id := range d.segOwn[s] {
		if id != NilBlock {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	d.cleanIDs = ids
	for i := len(ids) - 1; i >= 0; i-- {
		id := ids[i]
		lf := d.liveIn(s, id)
		if lf == nil || len(lf.vers) != 0 {
			continue // changed underneath us by an earlier relocation flush
		}
		rec := lf.persist // lf does not survive the seal ensureRoom may run
		ts := d.tick()
		if err := d.ensureRoom(1, 1); err != nil {
			return err
		}
		// One copy: the block is read straight into the open builder's
		// next data slot, which is added only once the read succeeded.
		if err := d.readPhys(rec.Seg, rec.Slot, d.builder.ReserveBlock()); err != nil {
			return err
		}
		segIdx, slot := d.commitBlockWrite(seg.SimpleARU, ts, id, rec.List)
		cb, ok := d.writableBlock(id, seg.SimpleARU, nil)
		if !ok {
			return fmt.Errorf("%w: %d during relocation", ErrNoSuchBlock, id)
		}
		d.setBlockPhys(cb, segIdx, slot, seg.SimpleARU)
		cb.rec.TS = ts
		cb.commitTS = ts
		d.stats.BlocksRelocated++
	}
	return nil
}
