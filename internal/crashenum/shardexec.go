package crashenum

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/shard"
)

// The sharded checker: a deterministic workload of single-shard and
// cross-shard recovery units against a shard.Disk whose every device —
// N shard logs and the coordinator log — is a Recorder on one shared
// Clock. The enumerator then crashes the whole machine at global
// instants and the oracle checks the cross-engine guarantee: a
// cross-shard unit is all-or-nothing across shards, and once EndARU
// has returned it is durable across shards (the coordinator record is
// the commit point, so 2PC buys durability at commit — stronger than
// the single-engine EndARU, which needs a Flush).
//
// Every unit creates its own lists, so no two units ever race on one
// list's structure: the in-doubt replay of a prepared unit then
// commutes with everything else, and the oracle can insist on exact
// snapshots.

// shardCoordSlots sizes the checker's coordinator log.
const shardCoordSlots = 128

// neverDurable marks a unit with no durability floor yet.
const neverDurable = math.MaxUint64

// shardCheckerOptions returns the shard.Disk configuration for a
// checker run. The schedule must be deterministic — Sequential2PC —
// so a (seed, crash state) pair replays exactly.
func shardCheckerOptions(inject string) (shard.Options, error) {
	p, err := checkerParams("")
	if err != nil {
		return shard.Options{}, err
	}
	o := shard.Options{Params: p, Sequential2PC: true}
	switch inject {
	case "", "none":
	case "commit-before-prepare-sync":
		o.UnsafeCommitBeforePrepareSync = true
	case "nosync":
		o.Params.Faults = &core.FaultHooks{NoSyncOnFlush: true}
	default:
		return shard.Options{}, fmt.Errorf("crashenum: unknown shard injection %q", inject)
	}
	return o, nil
}

// shardUnitFact records one workload unit for the oracle.
type shardUnitFact struct {
	idx       int
	committed bool
	cross     bool // touched ≥2 shards (committed by 2PC)
	lists     []listFact
	allLists  []core.ListID
	allBlocks []core.BlockID
	// durableG is the global clock tick after which the unit is
	// guaranteed durable: for cross-shard units the tick right after
	// EndARU returned (the coordinator sync is the commit point); for
	// single-shard units the tick of the first covering Flush return.
	durableG uint64
}

// shardRunResult is a completed sharded execution: the per-device
// journals and the facts the oracle checks each crash state against.
type shardRunResult struct {
	recs    []*Recorder // shard devices, then the coordinator device
	clock   *Clock
	opts    shard.Options
	nShards int
	startG  uint64
	units   []*shardUnitFact
}

func (res *shardRunResult) journals() ([][]WriteOp, [][]uint64, []int64) {
	var journals [][]WriteOp
	var syncs [][]uint64
	var sizes []int64
	for _, r := range res.recs {
		journals = append(journals, r.Journal())
		syncs = append(syncs, r.SyncGSeqs())
		sizes = append(sizes, r.Size())
	}
	return journals, syncs, sizes
}

// runShard executes the seeded sharded workload over nShards shard
// devices plus a coordinator device, all journaled on one clock.
func runShard(seed int64, nShards int, inject string) (*shardRunResult, error) {
	if nShards < 2 {
		nShards = 2
	}
	opts, err := shardCheckerOptions(inject)
	if err != nil {
		return nil, err
	}
	clock := &Clock{}
	res := &shardRunResult{clock: clock, opts: opts, nShards: nShards}
	var devs []disk.Disk
	for i := 0; i < nShards; i++ {
		r := NewRecorderShared(opts.Params.Layout.DiskBytes(), clock)
		res.recs = append(res.recs, r)
		devs = append(devs, r)
	}
	coordRec := NewRecorderShared(shard.CoordBytes(shardCoordSlots), clock)
	res.recs = append(res.recs, coordRec)

	d, err := shard.Format(devs, coordRec, opts)
	if err != nil {
		return nil, fmt.Errorf("crashenum: shard format: %w", err)
	}
	bsize := opts.Params.Layout.BlockSize
	if err := d.Flush(); err != nil {
		return nil, err
	}
	res.startG = clock.Now()

	rng := rand.New(rand.NewSource(seed ^ 0x51ca9de3))
	markDurable := func() {
		g := clock.Now()
		for _, u := range res.units {
			if u.committed && u.durableG == neverDurable {
				u.durableG = g
			}
		}
	}
	snapshot := func(u *shardUnitFact) error {
		for _, id := range u.allLists {
			members, err := d.ListBlocks(0, id)
			if err != nil {
				return fmt.Errorf("crashenum: snapshot list %d: %w", id, err)
			}
			lf := listFact{id: id, members: members, content: make(map[core.BlockID][]byte)}
			for _, b := range members {
				buf := make([]byte, bsize)
				if err := d.Read(0, b, buf); err != nil {
					return fmt.Errorf("crashenum: snapshot block %d: %w", b, err)
				}
				lf.content[b] = buf
			}
			u.lists = append(u.lists, lf)
		}
		return nil
	}

	nUnits := 16
	for ui := 0; ui < nUnits; ui++ {
		u := &shardUnitFact{idx: ui, durableG: neverDurable}
		res.units = append(res.units, u)
		a, err := d.BeginARU()
		if err != nil {
			return nil, err
		}
		kind := rng.Intn(10) // 0-5 cross, 6-7 single, 8-9 abort
		wantShards := 1
		if kind <= 5 || kind >= 8 {
			wantShards = 2
		}
		// Create the unit's lists inside the unit until it holds one on
		// wantShards distinct shards (round-robin placement makes this
		// terminate immediately).
		shardsSeen := map[int]bool{}
		var lists []core.ListID
		for len(shardsSeen) < wantShards {
			l, err := d.NewList(a)
			if err != nil {
				return nil, err
			}
			u.allLists = append(u.allLists, l)
			if !shardsSeen[d.ShardOfList(l)] {
				shardsSeen[d.ShardOfList(l)] = true
				lists = append(lists, l)
			}
		}
		u.cross = len(shardsSeen) > 1
		serial := 0
		var live []core.BlockID
		for _, l := range lists {
			for n := 2 + rng.Intn(3); n > 0; n-- {
				b, err := d.NewBlock(a, l, core.NilBlock)
				if err != nil {
					return nil, err
				}
				u.allBlocks = append(u.allBlocks, b)
				live = append(live, b)
				serial++
				if err := d.Write(a, b, unitPayload(bsize, ui, serial)); err != nil {
					return nil, err
				}
			}
		}
		if len(live) > 1 && rng.Intn(2) == 1 {
			j := rng.Intn(len(live))
			if err := d.DeleteBlock(a, live[j]); err != nil {
				return nil, err
			}
			live = append(live[:j], live[j+1:]...)
		}
		for w := rng.Intn(3); w > 0 && len(live) > 0; w-- {
			serial++
			if err := d.Write(a, live[rng.Intn(len(live))], unitPayload(bsize, ui, serial)); err != nil {
				return nil, err
			}
		}
		if kind >= 8 {
			if err := d.AbortARU(a); err != nil {
				return nil, err
			}
		} else {
			if err := d.EndARU(a); err != nil {
				return nil, err
			}
			u.committed = true
			if u.cross {
				// 2PC is durable at commit: the coordinator record is
				// synced before EndARU returns.
				u.durableG = clock.Now()
			}
			if err := snapshot(u); err != nil {
				return nil, err
			}
		}
		if rng.Intn(3) == 0 {
			if err := d.Flush(); err != nil {
				return nil, err
			}
			markDurable()
		}
	}
	return res, nil
}

// probe classifies the recovered presence of one unit through the
// sharded disk, mirroring unitFact.probe (allocation excluded from
// "effect" per §3.3 — an empty surviving list is not a trace).
func (u *shardUnitFact) probe(d *shard.Disk, bsize int) (full, none bool, desc string) {
	full, none = u.committed, true
	snap := make(map[core.ListID]*listFact, len(u.lists))
	for i := range u.lists {
		snap[u.lists[i].id] = &u.lists[i]
	}
	listed := make(map[core.BlockID]bool)
	buf := make([]byte, bsize)
	for _, id := range u.allLists {
		members, err := d.ListBlocks(0, id)
		if err != nil {
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
			continue
		}
		if !blocksEqual(members, lf.members) {
			full = false
			desc = fmt.Sprintf("list %d members %v, committed %v", id, members, lf.members)
			continue
		}
		for _, b := range members {
			listed[b] = true
			if err := d.Read(0, b, buf); err != nil {
				full = false
				desc = fmt.Sprintf("list %d block %d: %v", id, b, err)
			} else if !bytes.Equal(buf, lf.content[b]) {
				full = false
				desc = fmt.Sprintf("list %d block %d content differs from committed snapshot", id, b)
			}
		}
	}
	for _, b := range u.allBlocks {
		if listed[b] {
			continue
		}
		if _, err := d.StatBlock(0, b); err == nil {
			full = false
			none = false
			desc = fmt.Sprintf("block %d still allocated", b)
		}
	}
	return full, none, desc
}

// checkImage mounts one multi-device crash state through full
// multi-shard recovery and checks the cross-engine oracle.
func (res *shardRunResult) checkImage(ms MultiState, imgs [][]byte) (viols []string) {
	defer func() {
		if p := recover(); p != nil {
			viols = append(viols, fmt.Sprintf("panic during recovery/check: %v", p))
		}
	}()
	var devs []disk.Disk
	for i := 0; i < res.nShards; i++ {
		devs = append(devs, disk.FromImage(imgs[i], disk.Geometry{}))
	}
	coordDev := disk.FromImage(imgs[res.nShards], disk.Geometry{})
	d, _, err := shard.OpenReport(devs, coordDev, res.opts)
	if err != nil {
		return []string{fmt.Sprintf("recovery failed: %v", err)}
	}
	if err := d.VerifyInternal(); err != nil {
		viols = append(viols, fmt.Sprintf("internal verification: %v", err))
	}
	bsize := res.opts.Params.Layout.BlockSize
	for _, u := range res.units {
		full, none, desc := u.probe(d, bsize)
		tag := "single-shard"
		if u.cross {
			tag = "cross-shard"
		}
		switch {
		case u.committed && u.durableG <= ms.G:
			if !full {
				viols = append(viols, fmt.Sprintf(
					"unit %d: %s, committed and durable (G %d ≤ crash %d) but not intact: %s",
					u.idx, tag, u.durableG, ms.G, desc))
			}
		case u.committed:
			if !full && !none {
				viols = append(viols, fmt.Sprintf(
					"unit %d: %s, committed but recovered partially (not all-or-nothing across shards): %s",
					u.idx, tag, desc))
			}
		default:
			if !none {
				viols = append(viols, fmt.Sprintf(
					"unit %d: %s, aborted but traces survived recovery: %s", u.idx, tag, desc))
			}
		}
	}
	if n, err := d.CheckDisk(); err != nil {
		viols = append(viols, fmt.Sprintf("post-recovery sweep: %v", err))
	} else if n != 0 {
		viols = append(viols, fmt.Sprintf("second consistency sweep freed %d blocks (first left leaks)", n))
	}
	return viols
}
