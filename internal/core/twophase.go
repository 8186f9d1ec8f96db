package core

import (
	"fmt"

	"aru/internal/obs"
	"aru/internal/seg"
)

// Two-phase commit primitives for cross-shard ARUs (internal/shard).
//
// A cross-shard unit opens one local ARU per participant engine. On
// EndARU the coordinator runs PrepareARU on every participant, flushes
// them, makes a commit record durable on its own coordinator log (the
// commit point), and finishes each participant with CommitPrepared.
//
// PrepareARU freezes the unit and makes it *redoable* without applying
// it: the shadow data materializes into the log (tagged with the ARU,
// so recovery still buffers it), the list-operation log is pre-logged
// as tagged link/unlink/delete records computed from the issue-time
// information the shadow already holds, and a KindPrepare record
// naming the coordinator transaction is queued behind them. Once the
// caller's Flush returns, recovery can replay the whole unit from the
// log alone — it only needs the coordinator's verdict
// (Params.CommitResolver) to decide whether it should.
//
// CommitPrepared is EndARU's merge with entry emission suppressed: the
// replay entries already sit in the log from prepare time, so logging
// them again would double-apply the unit at recovery. Only the commit
// record itself is new. AbortARU works unchanged on a prepared unit —
// its abort record cancels the prepare, and a crash before either
// record leaves the unit in doubt for the resolver (presumed abort
// when the coordinator record is absent, §3.3 traceless abort).

// PrepareARU freezes ARU aru under coordinator transaction txn: its
// data and operations become durable-ready in the log, topped by a
// prepare record, but nothing is applied to the committed state. The
// caller must Flush to make the prepare durable before acting on it.
// A prepared unit rejects every operation except CommitPrepared and
// AbortARU. The prepare runs under an engine-prepare span parented on
// sc (e.g. the shard coordinator's 2PC span).
func (d *LLD) PrepareARU(aru ARUID, txn uint64, sc obs.SpanContext) error {
	d.mu.Lock()
	defer d.endOp()
	if d.closed {
		return ErrClosed
	}
	if d.params.Variant == VariantOld {
		return ErrPrepareUnsupported
	}
	st, ok := d.arus[aru]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchARU, aru)
	}
	if st.prepared {
		return fmt.Errorf("%w: %d", ErrARUPrepared, aru)
	}
	sp := d.obs.Start(obs.SpanEnginePrepare, sc)

	// Materialize the shadow data: each still-buffered shadow version
	// is appended to the log tagged with the ARU, and the shadow record
	// inherits the physical location (the buffer is released). After
	// this loop the unit's contents live only in the log, exactly where
	// recovery can find them.
	for i := len(st.shadowBlocks) - 1; i >= 0; i-- {
		id := st.shadowBlocks[i]
		ab := pmapGet(d.blockTab.root, uint64(id)).find(aru)
		if ab.deleted || ab.data == nil {
			continue
		}
		segIdx, slot, err := d.appendBlockWrite(aru, ab.rec.TS, id, ab.rec.List, ab.data)
		if err != nil {
			return err
		}
		d.setBlockPhys(d.editBlock(id).find(aru), segIdx, slot, aru)
	}

	// Pre-log the list-operation log as tagged entries, from the
	// issue-time facts recorded in each listOp. Recovery's replay
	// fallbacks (applyLink head fallback, applyUnlink chain walk)
	// mirror the live merge's, so replaying these entries at the
	// resolution timestamp reconstructs what CommitPrepared's silent
	// replay produces live.
	preLogged := uint64(0)
	emit := func(e seg.Entry) error {
		e.ARU, e.TS = aru, d.tick()
		preLogged++
		return d.appendEntry(e)
	}
	for _, op := range st.linkLog {
		var err error
		switch op.kind {
		case opInsert:
			err = emit(seg.Entry{Kind: seg.KindLink, Block: op.block, List: op.list, Pred: op.pred})
		case opDeleteBlock:
			if op.list != NilList {
				err = emit(seg.Entry{Kind: seg.KindUnlink, Block: op.block, List: op.list})
			}
			if err == nil {
				err = emit(seg.Entry{Kind: seg.KindDeleteBlock, Block: op.block})
			}
		case opDeleteList:
			// The issue-time membership snapshot: live deletion removes
			// exactly these blocks (the client's view), and so must the
			// replay.
			for _, m := range op.members {
				if err = emit(seg.Entry{Kind: seg.KindDeleteBlock, Block: m}); err != nil {
					break
				}
			}
			if err == nil {
				err = emit(seg.Entry{Kind: seg.KindDeleteList, List: op.list})
			}
		case opUnlinkOnly:
			if op.list != NilList {
				err = emit(seg.Entry{Kind: seg.KindUnlink, Block: op.block, List: op.list})
			}
		default:
			err = fmt.Errorf("lld: unknown list-operation kind %d", op.kind)
		}
		if err != nil {
			return fmt.Errorf("lld: pre-logging list-operation log of ARU %d: %w", aru, err)
		}
	}

	// The prepare record rides pendingCommits so it is emitted at seal
	// time, after everything above has materialized: the prepare can
	// never land in a durable segment whose tagged entries were lost.
	if err := d.ensureRoom(0, 1); err != nil {
		return err
	}
	pts := d.tick()
	d.pendingCommits = append(d.pendingCommits, seg.Entry{Kind: seg.KindPrepare, ARU: aru, TS: pts, Txn: txn})
	st.prepared, st.prepTxn = true, txn
	d.nPrepared++
	// The view must start rejecting reads under aru.
	d.aruTab.edit(d.epoch+1, uint64(aru)).persist = aruPrepared
	d.stats.ARUsPrepared++
	sp.End(uint64(aru), txn, preLogged)
	return nil
}

// CommitPrepared applies a prepared ARU to the committed state and
// logs its commit record — the participant's half of a coordinator
// decision that already reached stable storage. Like EndARU it
// provides atomicity, not durability. It carries trace context like
// EndARUTraced.
func (d *LLD) CommitPrepared(aru ARUID, sc obs.SpanContext) error {
	d.mu.Lock()
	defer d.endOp()
	if d.closed {
		return ErrClosed
	}
	st, ok := d.arus[aru]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchARU, aru)
	}
	if !st.prepared {
		return fmt.Errorf("%w: CommitPrepared on ARU %d, which is not prepared", ErrBadParam, aru)
	}
	sp := d.obs.Start(obs.SpanEngineCommit, sc)
	replayed := uint64(len(st.linkLog))
	err := d.endARUNew(aru, st, sp.Ctx(), true)
	if err == nil {
		sp.End(uint64(aru), replayed, 0)
	}
	return err
}
