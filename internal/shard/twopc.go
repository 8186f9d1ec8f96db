package shard

import (
	"fmt"

	"aru/internal/core"
	"aru/internal/obs"
)

// The cross-shard commit protocol. An external unit that touched one
// shard (or none) commits on the fast path — the participant engine's
// own EndARU, indistinguishable from an unsharded disk. A unit with
// several participants commits in two phases:
//
//  1. Prepare: each participant engine makes the unit redoable in its
//     own log (core.PrepareARU) and seals it with a flush. After this
//     phase every participant can replay the unit from stable storage
//     alone — it just doesn't know whether it should.
//  2. Commit: the coordinator makes one commit record durable on the
//     coordinator log. That single sector sync is the commit point:
//     recovery on any shard resolves the unit's prepare by the
//     record's presence. Each participant then applies the decision
//     in memory (core.CommitPrepared); those commit records ride the
//     shards' logs lazily, like any single-engine commit.
//
// A crash anywhere in phase 1 aborts the unit on every shard (no
// coordinator record → presumed abort, traceless). A crash after the
// coordinator sync commits it everywhere — each shard redoes its part
// from the prepared log. There is no window in which some shards can
// keep the unit and others lose it, which is exactly what the
// multi-device crash enumerator checks.

// BeginARU opens a new external unit. Local ARUs are opened lazily on
// the first operation that touches each shard.
func (s *Disk) BeginARU() (ARUID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, core.ErrClosed
	}
	s.nextID++
	id := s.nextID
	s.units[id] = &unit{locals: make(map[int]ARUID)}
	return id, nil
}

// take removes and returns the unit of an external ARU.
func (s *Disk) take(aru ARUID) (*unit, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.units[aru]
	if !ok {
		return nil, fmt.Errorf("%w: %d", core.ErrNoSuchARU, aru)
	}
	delete(s.units, aru)
	return u, nil
}

// EndARU commits the unit atomically across every shard it touched.
func (s *Disk) EndARU(aru ARUID) error {
	return s.EndARUTraced(aru, obs.SpanContext{})
}

// EndARUTraced is EndARU carrying trace context: the fast path
// delegates the context to the engine commit; the 2PC path runs under
// a twopc-commit span that parents every participant's prepare phase,
// the coordinator commit and every participant apply.
func (s *Disk) EndARUTraced(aru ARUID, sc obs.SpanContext) error {
	u, err := s.take(aru)
	if err != nil {
		return err
	}
	switch len(u.order) {
	case 0:
		// The unit never touched a shard; nothing to commit.
		s.fastCommits.Add(1)
		return nil
	case 1:
		// Fast path: one participant commits exactly as an unsharded
		// engine would — no prepare, no coordinator record.
		s.fastCommits.Add(1)
		i := u.order[0]
		return s.shards[i].EndARUTraced(u.locals[i], sc)
	}
	return s.commitCrossShard(aru, u, sc)
}

// commitCrossShard runs the two-phase protocol over the unit's
// participants, in first-touch order.
func (s *Disk) commitCrossShard(aru ARUID, u *unit, sc obs.SpanContext) error {
	// Shared side of the checkpoint barrier: the whole 2PC commit —
	// prepare, coordinator record, apply — must not interleave with
	// Checkpoint's checkpoint-every-shard-then-reset sequence (see
	// Disk.Checkpoint). The fast path needs no gate: a single-shard
	// unit writes no prepare and no coordinator record, and until it
	// ends it has logged nothing an engine checkpoint could cut. The
	// gap between take and this acquire is harmless for the same
	// reason: no participant has prepared yet.
	s.ckpt.RLock()
	defer s.ckpt.RUnlock()
	txn := s.nextTxn.Add(1) - 1
	sp := s.tr.Start(obs.Span2PC, sc)
	csc := sp.Ctx()

	// Phase 1: prepare every participant, then seal the prepares with
	// flushes. A failure here aborts the unit everywhere — no
	// coordinator record exists yet, so the abort needs no durability
	// of its own (a crash now resolves the same way).
	prepare := func(i int) error {
		pp := s.tr.Start(obs.Span2PCPrepare, csc)
		if err := s.shards[i].PrepareARU(u.locals[i], txn, pp.Ctx()); err != nil {
			return fmt.Errorf("shard %d: prepare: %w", i, err)
		}
		if s.faults.CommitBeforePrepareSync {
			return nil // flushed (too late) below
		}
		if err := s.shards[i].FlushTraced(pp.Ctx()); err != nil {
			return fmt.Errorf("shard %d: prepare flush: %w", i, err)
		}
		pp.End(uint64(aru), txn, uint64(i))
		return nil
	}
	if err := s.fanOut(u.order, prepare); err != nil {
		s.abortLocals(u)
		s.crossAborts.Add(1)
		return err
	}

	// Phase 2: one durable coordinator record decides the unit.
	cc := s.tr.Start(obs.SpanCoordCommit, csc)
	if err := s.coord.commit(txn); err != nil {
		// The record did not become durable: the unit resolves as
		// aborted after any crash, so abort it live too.
		s.abortLocals(u)
		s.crossAborts.Add(1)
		return fmt.Errorf("shard: coordinator commit of txn %d: %w", txn, err)
	}
	cc.End(uint64(aru), txn, uint64(len(u.order)))

	if s.faults.CommitBeforePrepareSync {
		// The deliberately broken schedule: prepares reach stable
		// storage only now, after the decision is already durable.
		if err := s.fanOut(u.order, func(i int) error { return s.shards[i].FlushTraced(csc) }); err != nil {
			return err
		}
	}

	// The decision is durable; apply it on every participant. Failures
	// past the commit point cannot abort the unit — recovery would redo
	// it — so the first error is reported but every shard still applies.
	// The crossApplying gauge brackets the fan-out so snapshot cuts
	// never straddle a half-applied unit (see AcquireSnapshot).
	s.crossApplying.Add(1)
	applyErr := s.fanOut(u.order, func(i int) error {
		if err := s.shards[i].CommitPrepared(u.locals[i], csc); err != nil {
			return fmt.Errorf("shard %d: commit prepared: %w", i, err)
		}
		return nil
	})
	s.crossCommits.Add(1)
	s.crossApplying.Add(-1)
	sp.End(uint64(aru), txn, uint64(len(u.order)))
	return applyErr
}

// abortLocals aborts the unit's local ARU on every participant (used
// when phase 1 fails; prepared locals abort like open ones).
func (s *Disk) abortLocals(u *unit) {
	for _, i := range u.order {
		_ = s.shards[i].AbortARU(u.locals[i])
	}
}

// AbortARU discards the unit on every shard it touched. Cross-shard
// aborts need no coordinator involvement: absence of the commit record
// is the abort, on disk as in memory (§3.3, presumed abort).
func (s *Disk) AbortARU(aru ARUID) error {
	u, err := s.take(aru)
	if err != nil {
		return err
	}
	var first error
	for _, i := range u.order {
		if err := s.shards[i].AbortARU(u.locals[i]); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if len(u.order) > 1 {
		s.crossAborts.Add(1)
	}
	return first
}

// CommitDurable is EndARU plus durability. A cross-shard unit is
// already durable when EndARU returns (prepares flushed, coordinator
// record synced); the trailing flush also settles the participants'
// own commit records so recovery need not consult the resolver.
func (s *Disk) CommitDurable(aru ARUID) error {
	if err := s.EndARU(aru); err != nil {
		return err
	}
	return s.Flush()
}
