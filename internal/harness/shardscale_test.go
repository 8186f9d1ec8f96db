package harness

import (
	"fmt"
	"sync"
	"time"

	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/seg"
	"aru/internal/shard"
)

// ShardScaleResult holds one point of the shard-scaling measurement:
// a committer population, pinned round-robin to shards, each durably
// committing shard-local units with per-shard flushes serialized by
// the driver. Serialized, every durable commit costs its shard one
// device sync, so the device is the bottleneck and N shards run N sync
// pipelines in parallel — near-linear aggregate scaling.
type ShardScaleResult struct {
	Shards      int
	Committers  int // total, across all shards
	CommitsEach int

	Elapsed  time.Duration
	Syncs    int64 // device syncs across every shard, commit phase only
	FastPath int64 // fast-path commits (= Committers*CommitsEach)
	Cross    int64 // cross-shard commits (= 0 — pinned workload)
}

// PerSec returns aggregate durably-committed ARUs per wall second.
func (r ShardScaleResult) PerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Committers*r.CommitsEach) / r.Elapsed.Seconds()
}

// ShardFastPathResult compares the single-shard sharded disk against
// the bare engine on the identical durable-commit workload: the routing
// and 2PC bookkeeping the sharded composition adds must cost nearly
// nothing when every unit stays on one shard.
type ShardFastPathResult struct {
	Unsharded time.Duration
	Sharded   time.Duration
}

// Overhead is the sharded wall time relative to the bare engine
// (0.05 = 5% slower; negative = faster, i.e. noise).
func (r ShardFastPathResult) Overhead() float64 {
	if r.Unsharded <= 0 {
		return 0
	}
	return float64(r.Sharded-r.Unsharded) / float64(r.Unsharded)
}

// shardScaleCoordRecords sizes the coordinator log; the pinned workload
// never writes it, but cross-shard capacity must exist for Format.
const shardScaleCoordRecords = 256

// shardScaleLayout widens the group-commit geometry's segment count:
// the serialized side seals a partial segment per durable commit, so
// a run burns a segment per flush and needs the headroom.
func shardScaleLayout() seg.Layout {
	l := groupCommitLayout()
	l.NumSegs = 1024
	return l
}

// newShardScaleDisk formats a fresh sharded disk over in-memory
// devices, one engine per shard, and returns the devices for sync
// accounting.
func newShardScaleDisk(shards int) ([]*disk.Sim, *shard.Disk, error) {
	layout := shardScaleLayout()
	devs := make([]*disk.Sim, shards)
	ifaces := make([]disk.Disk, shards)
	for i := range devs {
		devs[i] = disk.NewMem(layout.DiskBytes())
		ifaces[i] = devs[i]
	}
	coord := disk.NewMem(shard.CoordBytes(shardScaleCoordRecords))
	d, err := shard.Format(ifaces, coord, shard.Options{
		Params: core.Params{Layout: layout},
	})
	if err != nil {
		return nil, nil, err
	}
	return devs, d, nil
}

// pinnedLists creates one committed list per shard (retrying the
// round-robin list allocator until every shard is covered) and returns
// them indexed by shard.
func pinnedLists(d *shard.Disk, shards int) ([]core.ListID, error) {
	lists := make([]core.ListID, shards)
	covered := 0
	for covered < shards {
		l, err := d.NewList(0)
		if err != nil {
			return nil, err
		}
		s := d.ShardOfList(l)
		if lists[s] == 0 {
			lists[s] = l
			covered++
		}
	}
	return lists, nil
}

// RunShardScale builds a fresh sharded disk and runs the pinned
// committer population once: committers goroutines, pinned
// committer→shard round-robin, each durably committing commitsEach
// single-block units on its own shard (BeginARU, NewBlock on the
// shard's list, Write, EndARU, then a per-shard Flush), the driver
// serializing each engine's flushes (endAndFlush). Flushing only the
// unit's own engine is what lets shards pipeline independently — the
// global Flush would fan out to every device.
func RunShardScale(shards, committers, commitsEach int, syncDelay time.Duration) (ShardScaleResult, error) {
	res := ShardScaleResult{Shards: shards, Committers: committers, CommitsEach: commitsEach}
	devs, d, err := newShardScaleDisk(shards)
	if err != nil {
		return res, err
	}
	defer d.Close()
	lists, err := pinnedLists(d, shards)
	if err != nil {
		return res, err
	}
	if err := d.Flush(); err != nil {
		return res, err
	}
	// Arm the sync latency only after setup, as everywhere in the
	// harness: the measurement is the commit phase.
	var syncs0 int64
	for _, dev := range devs {
		dev.SetSyncDelay(syncDelay)
		syncs0 += dev.Stats().Syncs
	}

	flushMus := make([]sync.Mutex, shards)
	res.Elapsed, err = runCommitters(committers, commitsEach, d.BlockSize(), func(c int) commitFns {
		s := c % shards
		return commitFns{
			begin:    d.BeginARU,
			newBlock: func(a core.ARUID) (core.BlockID, error) { return d.NewBlock(a, lists[s], core.NilBlock) },
			write:    d.Write,
			commit:   endAndFlush(&flushMus[s], d.EndARU, d.Shard(s).Flush),
		}
	})
	if err != nil {
		return res, fmt.Errorf("harness: shard scale %d: %w", shards, err)
	}
	for _, dev := range devs {
		res.Syncs += dev.Stats().Syncs
		dev.SetSyncDelay(0) // Close's flush+checkpoint outside the timing
	}
	res.Syncs -= syncs0
	st := d.ShardStats()
	res.FastPath, res.Cross = st.FastPathCommits, st.CrossShardCommits
	return res, nil
}

// RunShardFastPath times the identical durable-commit workload on a
// bare engine and on a 1-shard sharded disk: the difference is the
// composition's fast-path overhead (routing, unit tracking, the ARU id
// indirection) — everything except 2PC, which a single-shard unit never
// enters. Each side is the best of bestOf runs: the two wall times
// differ by a few percent at most.
func RunShardFastPath(committers, commitsEach int, syncDelay time.Duration) (ShardFastPathResult, error) {
	var best ShardFastPathResult
	for rep := 0; rep < bestOf; rep++ {
		r, err := runShardFastPathOnce(committers, commitsEach, syncDelay)
		if err != nil {
			return best, err
		}
		if rep == 0 || r.Unsharded < best.Unsharded {
			best.Unsharded = r.Unsharded
		}
		if rep == 0 || r.Sharded < best.Sharded {
			best.Sharded = r.Sharded
		}
	}
	return best, nil
}

func runShardFastPathOnce(committers, commitsEach int, syncDelay time.Duration) (ShardFastPathResult, error) {
	var res ShardFastPathResult

	// Bare engine side: same loop shape, global Flush (it is the only
	// engine).
	layout := shardScaleLayout()
	dev := disk.NewMem(layout.DiskBytes())
	ld, err := core.Format(dev, core.Params{Layout: layout})
	if err != nil {
		return res, err
	}
	defer ld.Close()
	lists := make([]core.ListID, committers)
	for c := range lists {
		if lists[c], err = ld.NewList(0); err != nil {
			return res, err
		}
	}
	if err := ld.Flush(); err != nil {
		return res, err
	}
	dev.SetSyncDelay(syncDelay)
	elapsed, err := runCommitters(committers, commitsEach, ld.BlockSize(), func(c int) commitFns {
		return commitFns{
			begin:    ld.BeginARU,
			newBlock: func(a core.ARUID) (core.BlockID, error) { return ld.NewBlock(a, lists[c], core.NilBlock) },
			write:    ld.Write,
			commit:   endAndFlush(nil, ld.EndARU, ld.Flush),
		}
	})
	dev.SetSyncDelay(0)
	if err != nil {
		return res, fmt.Errorf("harness: fast path, bare engine: %w", err)
	}
	res.Unsharded = elapsed

	// Sharded side: one shard, so every unit commits on the fast path
	// and the per-shard flush is the whole disk.
	devs, d, err := newShardScaleDisk(1)
	if err != nil {
		return res, err
	}
	defer d.Close()
	slists := make([]core.ListID, committers)
	for c := range slists {
		if slists[c], err = d.NewList(0); err != nil {
			return res, err
		}
	}
	if err := d.Flush(); err != nil {
		return res, err
	}
	devs[0].SetSyncDelay(syncDelay)
	elapsed, err = runCommitters(committers, commitsEach, d.BlockSize(), func(c int) commitFns {
		return commitFns{
			begin:    d.BeginARU,
			newBlock: func(a core.ARUID) (core.BlockID, error) { return d.NewBlock(a, slists[c], core.NilBlock) },
			write:    d.Write,
			commit:   endAndFlush(nil, d.EndARU, d.Shard(0).Flush),
		}
	})
	devs[0].SetSyncDelay(0)
	if err != nil {
		return res, fmt.Errorf("harness: fast path, sharded: %w", err)
	}
	res.Sharded = elapsed
	return res, nil
}
