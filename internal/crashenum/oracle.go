package crashenum

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"aru/internal/core"
	"aru/internal/ldnet"
	"aru/internal/seg"
)

// neverDurable marks a fact no durability point has covered yet.
const neverDurable = math.MaxUint64

// listFact is the committed snapshot of one list of a unit: the exact
// membership and contents the backend reported right after the commit.
type listFact struct {
	members []core.BlockID
	content map[core.BlockID][]byte
}

// unitFact records everything the oracle needs to know about one
// recovery unit of the workload.
type unitFact struct {
	idx       int
	tag       string                   // what kind of unit, for the findings ("" = the only kind)
	committed bool                     // the commit returned (false: aborted)
	lists     map[core.ListID]listFact // post-commit snapshot (committed units only)
	allLists  []core.ListID
	allBlocks []core.BlockID
	// durable is the position of the first durability point after the
	// commit — a Flush or Checkpoint return, an acknowledged
	// CommitDurable, a cross-shard EndARU: for a crash at or after it the
	// unit is guaranteed durable. neverDurable if none covered it.
	durable uint64
}

// genFact is one issued generation of a pool block.
type genFact struct {
	gen     int
	durable uint64 // as unitFact.durable
}

// poolFact tracks the simple-write generations of one pool block.
type poolFact struct {
	id   core.BlockID
	gens []genFact
}

// facts records what a workload did through a backend, as the oracle
// will judge it: units with their post-commit snapshots, pool blocks
// with their generations, and the durability floor of each.
type facts struct {
	d     ldnet.Backend // what the workload's operations go through
	bsize int
	// now is the current position in the unit State.at reports: the
	// recorder's epoch on one device, the shared clock's tick on several.
	now      func() uint64
	units    []*unitFact
	pool     []*poolFact
	poolList core.ListID
}

// newFacts starts recording what a workload does through d.
func newFacts(d ldnet.Backend, now func() uint64) *facts {
	return &facts{d: d, bsize: d.BlockSize(), now: now}
}

// markDurable records, at the return of a durability point that covers
// everything before it, the position from which everything committed so
// far is guaranteed durable.
func (f *facts) markDurable() {
	at := f.now()
	for _, u := range f.units {
		if u.committed && u.durable == neverDurable {
			u.durable = at
		}
	}
	for _, pb := range f.pool {
		for i := range pb.gens {
			if pb.gens[i].durable == neverDurable {
				pb.gens[i].durable = at
			}
		}
	}
}

func unitPayload(bsize, unit, serial int) []byte {
	p := make([]byte, bsize)
	binary.LittleEndian.PutUint32(p[0:], uint32(unit))
	binary.LittleEndian.PutUint32(p[4:], uint32(serial))
	for i := 8; i < bsize; i++ {
		p[i] = byte(unit*37 + serial*11 + i)
	}
	return p
}

func poolPayload(bsize, blk, gen int) []byte {
	p := make([]byte, bsize)
	binary.LittleEndian.PutUint32(p[0:], uint32(blk))
	binary.LittleEndian.PutUint32(p[4:], uint32(gen))
	for i := 8; i < bsize; i++ {
		p[i] = byte(blk*53 + gen*17 + i*3)
	}
	return p
}

// seedPool creates the pool — n simple blocks on a list of their own,
// at generation 1 — makes it durable with sync (which must end in a
// durability point), and returns the position the recorded window
// starts at, so enumeration begins from a durable base.
func (f *facts) seedPool(n int, sync func() error) (start uint64, err error) {
	if f.poolList, err = f.d.NewList(seg.SimpleARU); err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		b, err := f.d.NewBlock(seg.SimpleARU, f.poolList, core.NilBlock)
		if err != nil {
			return 0, err
		}
		f.pool = append(f.pool, &poolFact{id: b})
		if err := f.poolWrite(i); err != nil {
			return 0, err
		}
	}
	if err := sync(); err != nil {
		return 0, err
	}
	f.markDurable()
	return f.now(), nil
}

// poolWrite overwrites pool block j with its next generation, outside
// any unit — a simple operation in the paper's sense.
func (f *facts) poolWrite(j int) error {
	pb := f.pool[j]
	gen := len(pb.gens) + 1
	if err := f.d.Write(seg.SimpleARU, pb.id, poolPayload(f.bsize, j, gen)); err != nil {
		return err
	}
	pb.gens = append(pb.gens, genFact{gen: gen, durable: neverDurable})
	return nil
}

// liveUnit is an open recovery unit of a workload.
type liveUnit struct {
	f      *facts
	aru    core.ARUID
	fact   *unitFact
	live   []core.BlockID
	serial int
}

// begin opens unit idx.
func (f *facts) begin(idx int) (*liveUnit, error) {
	aru, err := f.d.BeginARU()
	if err != nil {
		return nil, err
	}
	u := &liveUnit{f: f, aru: aru, fact: &unitFact{idx: idx, durable: neverDurable}}
	f.units = append(f.units, u.fact)
	return u, nil
}

// newList creates a list inside the unit.
func (u *liveUnit) newList() (core.ListID, error) {
	id, err := u.f.d.NewList(u.aru)
	if err == nil {
		u.fact.allLists = append(u.fact.allLists, id)
	}
	return id, err
}

// newBlock allocates a block on lst and writes its first payload.
func (u *liveUnit) newBlock(lst core.ListID) error {
	b, err := u.f.d.NewBlock(u.aru, lst, core.NilBlock)
	if err != nil {
		return err
	}
	u.live = append(u.live, b)
	u.fact.allBlocks = append(u.fact.allBlocks, b)
	return u.rewrite(len(u.live) - 1)
}

// rewrite overwrites live block j with the unit's next payload.
func (u *liveUnit) rewrite(j int) error {
	u.serial++
	return u.f.d.Write(u.aru, u.live[j], unitPayload(u.f.bsize, u.fact.idx, u.serial))
}

// delete deletes live block j.
func (u *liveUnit) delete(j int) error {
	b := u.live[j]
	u.live = slices.Delete(u.live, j, j+1)
	return u.f.d.DeleteBlock(u.aru, b)
}

// end commits the unit with commit (the backend's EndARU, or a
// commit-and-flush) and takes its post-commit snapshot. durable says
// the commit's return is itself a durability point.
func (u *liveUnit) end(commit func(core.ARUID) error, durable bool) error {
	if err := commit(u.aru); err != nil {
		return err
	}
	f, fact := u.f, u.fact
	fact.committed = true
	if durable {
		fact.durable = f.now()
	}
	fact.lists = make(map[core.ListID]listFact)
	buf := make([]byte, f.bsize)
	for _, id := range fact.allLists {
		members, err := f.d.ListBlocks(seg.SimpleARU, id)
		if err != nil {
			return fmt.Errorf("crashenum: snapshot list %d: %w", id, err)
		}
		lf := listFact{members: members, content: make(map[core.BlockID][]byte)}
		for _, b := range members {
			if err := f.d.Read(seg.SimpleARU, b, buf); err != nil {
				return fmt.Errorf("crashenum: snapshot block %d: %w", b, err)
			}
			lf.content[b] = bytes.Clone(buf)
		}
		fact.lists[id] = lf
	}
	return nil
}

// abort aborts the unit.
func (u *liveUnit) abort() error { return u.f.d.AbortARU(u.aru) }

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
func (u *unitFact) probe(d ldnet.Backend) (full, none bool, desc string) {
	full, none = u.committed, true
	listed := make(map[core.BlockID]bool)
	buf := make([]byte, d.BlockSize())
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
		lf, committed := u.lists[id]
		if !committed {
			continue // aborted unit: membership already flagged via none
		}
		if !slices.Equal(members, lf.members) {
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

// judge checks the recorded facts against a disk recovered from a crash
// at position at: every unit durable by then is intact, every other
// committed unit is all or nothing — across shards too — and aborted
// units left no trace; every pool block reads one of its own
// generations, never older than its durable floor; and the lock-free
// read path serves exactly what the locked one does.
func (f *facts) judge(d recovered, at uint64, viols *[]string) {
	// Reader-during-recovery phase, post-replay half: the first
	// published epoch must serve exactly the recovered committed state,
	// so every lock-free read below is cross-checked against its locked
	// twin.
	snap, err := d.acquireSnapshot()
	lockFree := err == nil // on error snap may hold a typed nil: never test it
	if lockFree {
		defer snap.Release()
	} else {
		addf(viols, "post-recovery snapshot: %v", err)
	}

	for _, u := range f.units {
		full, none, desc := u.probe(d)
		switch {
		case u.committed && u.durable <= at:
			if !full {
				addf(viols, "unit %d%s: committed and durable (from %d on, crash at %d) but not intact: %s",
					u.idx, u.tag, u.durable, at, desc)
			}
		case u.committed:
			if !full && !none {
				addf(viols, "unit %d%s: committed but recovered partially (not all-or-nothing): %s", u.idx, u.tag, desc)
			}
		default:
			if !none {
				addf(viols, "unit %d%s: aborted but traces survived recovery: %s", u.idx, u.tag, desc)
			}
		}
	}

	buf := make([]byte, f.bsize)
	sbuf := make([]byte, f.bsize)
	for i, pb := range f.pool {
		floor := 0
		for _, g := range pb.gens {
			if g.durable <= at && g.gen > floor {
				floor = g.gen
			}
		}
		if err := d.Read(seg.SimpleARU, pb.id, buf); err != nil {
			addf(viols, "pool block %d unreadable: %v", pb.id, err)
			continue
		}
		if lockFree {
			if err := snap.Read(seg.SimpleARU, pb.id, sbuf); err != nil {
				addf(viols, "pool block %d: snapshot read failed where locked read succeeded: %v", pb.id, err)
			} else if !bytes.Equal(sbuf, buf) {
				addf(viols, "pool block %d: post-recovery snapshot diverges from locked read", pb.id)
			}
		}
		got := 0
		for g := len(pb.gens); g >= 1; g-- {
			if bytes.Equal(buf, poolPayload(f.bsize, i, g)) {
				got = g
				break
			}
		}
		switch {
		case got == 0:
			addf(viols, "pool block %d: content matches no issued generation (torn simple write?)", pb.id)
		case got < floor:
			addf(viols, "pool block %d: recovered generation %d older than durable floor %d for a crash at %d",
				pb.id, got, floor, at)
		}
	}

	// List walks must agree between the two read paths as well: same
	// membership when both succeed, and never a snapshot answer for a
	// list the locked path says does not exist.
	if lockFree {
		for _, u := range f.units {
			for _, id := range u.allLists {
				locked, lerr := d.ListBlocks(seg.SimpleARU, id)
				snapped, serr := snap.ListBlocks(seg.SimpleARU, id)
				switch {
				case (lerr == nil) != (serr == nil):
					addf(viols, "unit %d list %d: locked/snapshot walks disagree on existence (%v vs %v)", u.idx, id, lerr, serr)
				case lerr == nil && !slices.Equal(locked, snapped):
					addf(viols, "unit %d list %d: snapshot membership %v, locked %v", u.idx, id, snapped, locked)
				}
			}
		}
	}
}
