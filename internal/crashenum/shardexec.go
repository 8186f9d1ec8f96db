package crashenum

import (
	"fmt"
	"math/rand"

	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/shard"
)

// The sharded workload: a deterministic sequence of single-shard and
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

// runShard executes the seeded sharded workload over o.Shards shard
// devices (default 2) plus a coordinator device, all journaled on one
// clock.
func runShard(seed int64, o Options) (*execution, error) {
	nShards := max(o.Shards, 2)
	opts, err := checkerOptions(o.Inject)
	if err != nil {
		return nil, err
	}
	clock := &Clock{}
	var recs []*Recorder
	var devs []disk.Disk
	for i := 0; i < nShards; i++ {
		r := NewRecorder(opts.Params.Layout.DiskBytes(), clock)
		recs = append(recs, r)
		devs = append(devs, r)
	}
	coordRec := NewRecorder(shard.CoordBytes(shardCoordSlots), clock)
	recs = append(recs, coordRec)

	d, err := shard.Format(devs, coordRec, opts)
	if err != nil {
		return nil, fmt.Errorf("crashenum: shard format: %w", err)
	}
	if err := d.Flush(); err != nil {
		return nil, err
	}
	start := clock.Now()
	f := newFacts(d, clock.Now)

	rng := rand.New(rand.NewSource(seed ^ 0x51ca9de3))
	unit := func(idx int) error {
		u, err := f.begin(idx)
		if err != nil {
			return err
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
			l, err := u.newList()
			if err != nil {
				return err
			}
			if !shardsSeen[d.ShardOfList(l)] {
				shardsSeen[d.ShardOfList(l)] = true
				lists = append(lists, l)
			}
		}
		cross := len(shardsSeen) > 1
		u.fact.tag = " (single-shard)"
		if cross {
			u.fact.tag = " (cross-shard)"
		}
		for _, l := range lists {
			for n := 2 + rng.Intn(3); n > 0; n-- {
				if err := u.newBlock(l); err != nil {
					return err
				}
			}
		}
		if len(u.live) > 1 && rng.Intn(2) == 1 {
			if err := u.delete(rng.Intn(len(u.live))); err != nil {
				return err
			}
		}
		for w := rng.Intn(3); w > 0 && len(u.live) > 0; w-- {
			if err := u.rewrite(rng.Intn(len(u.live))); err != nil {
				return err
			}
		}
		if kind >= 8 {
			err = u.abort()
		} else {
			// 2PC is durable at commit: the coordinator record is
			// synced before EndARU returns.
			err = u.end(d.EndARU, cross)
		}
		if err != nil {
			return err
		}
		if rng.Intn(3) == 0 {
			if err := d.Flush(); err != nil {
				return err
			}
			f.markDurable()
		}
		return nil
	}
	for idx := 0; idx < 16; idx++ {
		if err := unit(idx); err != nil {
			return nil, fmt.Errorf("crashenum: shard unit %d: %w", idx, err)
		}
	}
	return &execution{flags: fmt.Sprintf("-workloads shard -shards %d", nShards), recs: recs, start: start,
		mount: mountShards(opts), judge: f.judge}, nil
}
