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
// become reusable. Cleaning requires that no ARU is open.
func (d *LLD) Clean(target int) (int, error) {
	d.lockDrained()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	if len(d.arus) != 0 {
		return 0, fmt.Errorf("%w: cannot clean with open ARUs", ErrARUActive)
	}
	defer d.publishLocked()
	d.pubSafe = true
	defer func() { d.pubSafe = false }()
	return d.cleanLocked(target), nil
}

// cleanLocked is the cleaner body; callers hold d.mu and guarantee no
// open ARUs (maybeMaintain checks). It never returns an error: cleaning
// is best-effort and failures simply leave fewer free segments.
func (d *LLD) cleanLocked(target int) int {
	if d.inClean {
		return 0
	}
	d.inClean = true
	defer func() { d.inClean = false }()
	cleaned := 0
	sp := d.obs.Start(obs.SpanCleanerPass, obs.SpanContext{})
	defer func() { sp.End(0, uint64(cleaned), 0) }()

	const batch = 8 // victims relocated per flush/checkpoint cycle
	visited := d.cleanVisited
	free := d.reusableCount()
	for free < target {
		before := free
		clear(visited)
		relocated := 0
		for relocated < batch {
			victim, ok := d.pickVictim(visited)
			if !ok {
				break
			}
			visited[victim] = true
			if err := d.relocateSegment(victim); err != nil {
				return cleaned
			}
			relocated++
		}
		if relocated == 0 {
			break
		}
		// Checkpoint: its drain promotes the relocations (dropping the
		// victims' live counts), and the record takes the victims' old
		// summary entries out of the replay window, so the segments
		// become reusable.
		if err := d.checkpointLocked(); err != nil {
			break
		}
		cleaned += relocated
		d.stats.SegmentsCleaned.Add(int64(relocated))
		if d.pubSafe {
			// Each flush+checkpoint cycle leaves an op-consistent state:
			// publish it so long cleaner passes do not starve readers of
			// fresh epochs (and so drained snapshots purge, freeing the
			// segments they pin).
			d.publishLocked()
		}
		if free = d.reusableCount(); free <= before {
			// No net space gained: the victims are so full that
			// relocation consumes as much as it frees. Stop rather
			// than ping-pong live data forever.
			break
		}
	}
	return cleaned
}

// cleanable reports whether segment s is a valid cleaning victim: an
// old (checkpoint-covered), unpinned, written segment that still holds
// live blocks, every one of which is relocatable (its persistent record
// is the block's only version — relocating a block with pending shadow
// or committed updates could resurrect stale data after a crash). Being
// covered by the checkpoint, it has no chunk still queued for a write or
// a sync.
func (d *LLD) cleanable(s int) bool {
	if s == d.curSeg || d.segSeq[s] == 0 || d.segSeq[s] > d.ckptSeq {
		return false
	}
	if d.segPins[s] != 0 || d.segLive[s] == 0 {
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

// victimCand is one cleaning candidate of pickVictim (scratch kept
// across passes in d.cleanCands).
type victimCand struct {
	s     int
	live  int32
	score float64
}

// pickVictim selects the next segment to clean according to the
// configured policy, skipping segments already relocated this cycle.
func (d *LLD) pickVictim(exclude map[int]bool) (int, bool) {
	cands := d.cleanCands[:0]
	for s := 0; s < d.params.Layout.NumSegs; s++ {
		if exclude[s] || s == d.curSeg || d.segSeq[s] == 0 || d.segSeq[s] > d.ckptSeq ||
			d.segPins[s] != 0 || d.segLive[s] == 0 {
			continue
		}
		// Utilization and age for the cost-benefit policy.
		u := float64(d.segLive[s]) / float64(d.params.Layout.BlocksPerSeg())
		age := float64(d.nextSeq - d.segSeq[s])
		score := (1 - u) * age / (1 + u)
		cands = append(cands, victimCand{s: s, live: d.segLive[s], score: score})
	}
	d.cleanCands = cands
	// Both orders are total — equal candidates go by segment index — so
	// the best candidate is one pass away and sorting the rest is wasted:
	// nearly always the first one is cleanable.
	before := func(a, b victimCand) bool {
		return cmp.Or(cmp.Compare(a.live, b.live), cmp.Compare(a.s, b.s)) < 0
	}
	if d.params.CleanerPolicy == CleanCostBenefit {
		before = func(a, b victimCand) bool {
			return cmp.Or(cmp.Compare(b.score, a.score), cmp.Compare(a.s, b.s)) < 0
		}
	}
	// Take the best candidate whose blocks are all relocatable, selecting
	// again past one that is not.
	for len(cands) > 0 {
		best := 0
		for i := 1; i < len(cands); i++ {
			if before(cands[i], cands[best]) {
				best = i
			}
		}
		if s := cands[best].s; d.cleanable(s) {
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
		d.stats.BlocksRelocated.Add(1)
	}
	return nil
}
