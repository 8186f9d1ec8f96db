package shard

import (
	"aru/internal/core"
)

// snapAcquireRetries bounds the acquire-validate-retry loop: under a
// continuous stream of cross-shard commits a perfectly stable cut may
// never materialize, so after this many attempts AcquireSnapshot
// returns the last cut and marks it skewed rather than livelocking.
const snapAcquireRetries = 16

// Snapshot is a pinned read-only view of the sharded disk: one core
// snapshot per shard, each a single published epoch of its engine.
//
// Consistency: within a shard the view is exactly as strong as a
// single-engine snapshot. Across shards, the 2PC apply fan-out
// publishes each participant's epoch only after the coordinator commit
// point, so a cut taken while no apply was in flight can never show a
// cross-shard unit partially applied. AcquireSnapshot validates that
// with the commit counters and retries; it gives up, and takes the cut
// as it stands, only after snapAcquireRetries straight collisions with
// concurrent 2PC traffic.
type Snapshot struct {
	s      *Disk
	snaps  []*core.Snapshot
	skewed bool // the retries ran out: the cut may straddle a cross-shard unit
}

// AcquireSnapshot pins one epoch on every shard and returns the cut.
// It retries until no cross-shard apply overlapped the acquisition
// window (or the retry budget runs out — see Snapshot).
func (s *Disk) AcquireSnapshot() (*Snapshot, error) {
	for attempt := 0; ; attempt++ {
		commits0 := s.crossCommits.Load()
		stable := s.crossApplying.Load() == 0
		snaps := make([]*core.Snapshot, len(s.shards))
		var err error
		for i, d := range s.shards {
			if snaps[i], err = d.AcquireSnapshot(); err != nil {
				for _, h := range snaps[:i] {
					h.Release()
				}
				return nil, err
			}
		}
		if stable && s.crossApplying.Load() == 0 && s.crossCommits.Load() == commits0 {
			return &Snapshot{s: s, snaps: snaps}, nil
		}
		if attempt >= snapAcquireRetries {
			return &Snapshot{s: s, snaps: snaps, skewed: true}, nil
		}
		for _, h := range snaps {
			h.Release()
		}
	}
}

// Release unpins every shard's epoch. Idempotent (each underlying
// handle is).
func (h *Snapshot) Release() {
	for _, s := range h.snaps {
		s.Release()
	}
}

// Read reads block b as seen from aru's state in the pinned cut,
// routing on the block id exactly like Disk.Read. Resolving an
// external unit to its per-shard ARU takes the router mutex briefly;
// committed reads (Simple) stay lock-free end to end.
func (h *Snapshot) Read(aru ARUID, b BlockID, dst []byte) error {
	if err := checkBlock(b); err != nil {
		return err
	}
	i := h.s.shardOf(uint64(b))
	la, err := h.s.localARU(aru, i, false)
	if err != nil {
		return err
	}
	return h.snaps[i].Read(la, BlockID(h.s.localOf(uint64(b))), dst)
}

// ListBlocks walks lst in the pinned cut and translates the members
// back to external ids.
func (h *Snapshot) ListBlocks(aru ARUID, lst ListID) ([]BlockID, error) {
	if err := checkList(lst); err != nil {
		return nil, err
	}
	i := h.s.shardOf(uint64(lst))
	la, err := h.s.localARU(aru, i, false)
	if err != nil {
		return nil, err
	}
	members, err := h.snaps[i].ListBlocks(la, ListID(h.s.localOf(uint64(lst))))
	if err != nil {
		return nil, err
	}
	for j, b := range members {
		members[j] = BlockID(h.s.extOf(uint64(b), i))
	}
	return members, nil
}
