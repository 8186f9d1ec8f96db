package crashenum

import (
	"bytes"
	"errors"
	"fmt"

	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/seg"
)

// probe classifies the recovered presence of one unit. full means the
// unit's entire committed snapshot is intact; none means no effect of
// the unit survived recovery. A committed unit must always be one of
// the two — anything in between is a broken atomicity guarantee.
//
// Allocation is deliberately excluded from "effect": per paper §3.3,
// allocations are simple operations applied unconditionally at
// recovery, so an uncommitted unit may leave behind an *empty* list
// (the sweep frees leaked blocks, but an empty list is
// indistinguishable from a committed empty list and stays). What must
// never survive without the commit record is list membership or block
// data.
func (u *unitFact) probe(d *core.LLD, bsize int) (full, none bool, desc string) {
	full, none = u.committed, true
	snap := make(map[core.ListID]*listFact, len(u.lists))
	for i := range u.lists {
		snap[u.lists[i].id] = &u.lists[i]
	}
	listed := make(map[core.BlockID]bool)
	buf := make([]byte, bsize)
	for _, id := range u.allLists {
		members, err := d.ListBlocks(seg.SimpleARU, id)
		if err != nil {
			// List does not exist: no trace, but a committed unit's
			// snapshot is not intact.
			full = false
			desc = fmt.Sprintf("list %d: %v", id, err)
			continue
		}
		if len(members) > 0 {
			none = false
			desc = fmt.Sprintf("list %d has %d members", id, len(members))
		}
		lf := snap[id]
		if lf == nil {
			continue // aborted unit: membership already flagged via none
		}
		if !blocksEqual(members, lf.members) {
			full = false
			desc = fmt.Sprintf("list %d members %v, committed %v", id, members, lf.members)
			continue
		}
		for _, b := range members {
			listed[b] = true
			if err := d.Read(seg.SimpleARU, b, buf); err != nil {
				full = false
				desc = fmt.Sprintf("list %d block %d: %v", id, b, err)
			} else if !bytes.Equal(buf, lf.content[b]) {
				full = false
				desc = fmt.Sprintf("list %d block %d content differs from committed snapshot", id, b)
			}
		}
	}
	// Every block the unit ever allocated that did not survive onto a
	// committed list must be unallocated after recovery: either its
	// allocation was never replayed, or the sweep freed it as a leak.
	for _, b := range u.allBlocks {
		if listed[b] {
			continue
		}
		if _, err := d.StatBlock(seg.SimpleARU, b); err == nil {
			full = false
			none = false
			desc = fmt.Sprintf("block %d still allocated", b)
		}
	}
	return full, none, desc
}

// checkImage mounts one crash image through full recovery and checks
// the oracle. It returns a description of every violation found (nil
// for a clean state). Panics inside recovery or the checks are
// converted into violations.
func (res *runResult) checkImage(cs CrashState, img []byte) (viols []string) {
	defer func() {
		if p := recover(); p != nil {
			viols = append(viols, fmt.Sprintf("panic during recovery/check: %v", p))
		}
	}()
	dev := disk.FromImage(img, disk.Geometry{})
	// Reader-during-recovery phase, replay half: while the image is
	// being replayed the snapshot head does not exist yet, so a read
	// attempt must fail cleanly with ErrClosed — never answer from a
	// half-rebuilt table.
	params := res.params
	var hooks core.FaultHooks
	if params.Faults != nil {
		hooks = *params.Faults // recovery runs on the same (possibly broken) build
	}
	params.Faults = &hooks
	hooks.RecoveryProbe = func(rd *core.LLD) {
		if h, err := rd.AcquireSnapshot(); err == nil {
			h.Release()
			viols = append(viols, "read path published before recovery completed")
		} else if !errors.Is(err, core.ErrClosed) {
			viols = append(viols, fmt.Sprintf("mid-replay read failed uncleanly: %v", err))
		}
	}
	d, _, err := core.OpenReport(dev, params)
	if err != nil {
		return append(viols, fmt.Sprintf("recovery failed: %v", err))
	}
	if err := d.VerifyInternal(); err != nil {
		viols = append(viols, fmt.Sprintf("internal verification: %v", err))
	}
	// Post-replay half: the first published epoch must serve exactly
	// the recovered committed state, so every lock-free read below is
	// cross-checked against its locked twin.
	snap, err := d.AcquireSnapshot()
	if err != nil {
		viols = append(viols, fmt.Sprintf("post-recovery snapshot: %v", err))
	} else {
		defer snap.Release()
	}
	E := cs.Epoch
	bsize := res.params.Layout.BlockSize

	for _, u := range res.units {
		full, none, desc := u.probe(d, bsize)
		switch {
		case u.committed && u.durableEpoch >= 0 && u.durableEpoch <= E:
			if !full {
				viols = append(viols, fmt.Sprintf(
					"unit %d: committed and durable (flush epoch %d ≤ crash epoch %d) but not intact: %s",
					u.idx, u.durableEpoch, E, desc))
			}
		case u.committed:
			if !full && !none {
				viols = append(viols, fmt.Sprintf(
					"unit %d: committed but recovered partially (not all-or-nothing): %s", u.idx, desc))
			}
		default:
			if !none {
				viols = append(viols, fmt.Sprintf(
					"unit %d: aborted but traces survived recovery: %s", u.idx, desc))
			}
		}
	}

	buf := make([]byte, bsize)
	sbuf := make([]byte, bsize)
	for i, pb := range res.pool {
		floor := 0
		for _, g := range pb.gens {
			if g.durableEpoch >= 0 && g.durableEpoch <= E && g.gen > floor {
				floor = g.gen
			}
		}
		if err := d.Read(seg.SimpleARU, pb.id, buf); err != nil {
			viols = append(viols, fmt.Sprintf("pool block %d unreadable: %v", pb.id, err))
			continue
		}
		if snap != nil {
			if err := snap.Read(seg.SimpleARU, pb.id, sbuf); err != nil {
				viols = append(viols, fmt.Sprintf("pool block %d: snapshot read failed where locked read succeeded: %v", pb.id, err))
			} else if !bytes.Equal(sbuf, buf) {
				viols = append(viols, fmt.Sprintf("pool block %d: post-recovery snapshot diverges from locked read", pb.id))
			}
		}
		got := 0
		for g := len(pb.gens); g >= 1; g-- {
			if bytes.Equal(buf, poolPayload(bsize, i, g)) {
				got = g
				break
			}
		}
		switch {
		case got == 0:
			viols = append(viols, fmt.Sprintf(
				"pool block %d: content matches no issued generation (torn simple write?)", pb.id))
		case got < floor:
			viols = append(viols, fmt.Sprintf(
				"pool block %d: recovered generation %d older than durable floor %d at crash epoch %d",
				pb.id, got, floor, E))
		}
	}

	// List walks must agree between the two read paths as well: same
	// membership when both succeed, and never a snapshot answer for a
	// list the locked path says does not exist.
	if snap != nil {
		for _, u := range res.units {
			for _, id := range u.allLists {
				locked, lerr := d.ListBlocks(seg.SimpleARU, id)
				snapped, serr := snap.ListBlocks(seg.SimpleARU, id)
				switch {
				case (lerr == nil) != (serr == nil):
					viols = append(viols, fmt.Sprintf(
						"unit %d list %d: locked/snapshot walks disagree on existence (%v vs %v)", u.idx, id, lerr, serr))
				case lerr == nil && !blocksEqual(locked, snapped):
					viols = append(viols, fmt.Sprintf(
						"unit %d list %d: snapshot membership %v, locked %v", u.idx, id, snapped, locked))
				}
			}
		}
	}

	// The automatic post-recovery sweep already ran; a second sweep
	// finding anything means recovery left leaked allocations behind.
	if n, err := d.CheckDisk(); err != nil {
		viols = append(viols, fmt.Sprintf("post-recovery sweep: %v", err))
	} else if n != 0 {
		viols = append(viols, fmt.Sprintf("second consistency sweep freed %d blocks (first left leaks)", n))
	}
	return viols
}
