package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/seg"
	"aru/internal/shard"
	"aru/internal/workload"
)

// ShardScaleResult holds one point of the shard-scaling sweep: the same
// total committer population, pinned round-robin to shards, each
// durably committing shard-local units with per-shard flushes — run
// once with each engine's flushes serialized by the driver and once
// meeting in each shard's group-commit broker.
//
// The two sides scale for different reasons. Serialized, every
// durable commit costs its shard one device sync, so the device is the
// bottleneck and N shards run N sync pipelines in parallel —
// near-linear aggregate scaling. The broker already coalesces an
// entire population's commits into few syncs on one device, so its
// curve is flatter: committers are bound by their own commit latency
// (about two sync periods), which sharding does not shorten.
type ShardScaleResult struct {
	Shards      int
	Committers  int // total, across all shards
	CommitsEach int
	SyncDelay   time.Duration

	SerialElapsed time.Duration // flushes serialized by the driver, per engine
	GroupElapsed  time.Duration // per-shard group-commit brokers
	SerialSyncs   int64         // device syncs across every shard, commit phase only
	GroupSyncs    int64
	FastPath      int64 // fast-path commits, group run (= Committers*CommitsEach)
	Cross         int64 // cross-shard commits, group run (= 0 — pinned workload)
}

// SerialPerSec returns aggregate durably-committed ARUs per wall
// second with flushes serialized by the driver.
func (r ShardScaleResult) SerialPerSec() float64 {
	if r.SerialElapsed <= 0 {
		return 0
	}
	return float64(r.Committers*r.CommitsEach) / r.SerialElapsed.Seconds()
}

// GroupPerSec returns aggregate durably-committed ARUs per wall second
// through the group-commit brokers.
func (r ShardScaleResult) GroupPerSec() float64 {
	if r.GroupElapsed <= 0 {
		return 0
	}
	return float64(r.Committers*r.CommitsEach) / r.GroupElapsed.Seconds()
}

// ShardFastPathResult compares the single-shard sharded disk against
// the bare engine on the identical durable-commit workload: the routing
// and 2PC bookkeeping the sharded composition adds must cost nearly
// nothing when every unit stays on one shard.
type ShardFastPathResult struct {
	Committers  int
	CommitsEach int
	SyncDelay   time.Duration

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
// a full sweep burns a segment per flush and needs the headroom.
func shardScaleLayout() seg.Layout {
	l := groupCommitLayout()
	l.NumSegs = 1024
	return l
}

// newShardScaleDisk formats a fresh sharded disk over in-memory
// devices, one engine per shard, and returns the devices for sync
// accounting.
func newShardScaleDisk(shards int) ([]*disk.Sim, *disk.Sim, *shard.Disk, error) {
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
		return nil, nil, nil, err
	}
	return devs, coord, d, nil
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

// runShardScaleSide builds a fresh sharded disk and runs the pinned
// committer population once: committers goroutines, pinned
// committer→shard round-robin, each durably committing commitsEach
// single-block units on its own shard (BeginARU, NewBlock on the
// shard's list, Write, EndARU, then a per-shard Flush). Flushing only
// the unit's own engine is what lets shards pipeline independently —
// the global Flush would fan out to every device. serial makes the
// driver serialize each engine's flushes (endAndFlush).
func runShardScaleSide(shards, committers, commitsEach int, syncDelay time.Duration, serial bool) (time.Duration, int64, shard.Stats, error) {
	devs, _, d, err := newShardScaleDisk(shards)
	if err != nil {
		return 0, 0, shard.Stats{}, err
	}
	defer d.Close()
	lists, err := pinnedLists(d, shards)
	if err != nil {
		return 0, 0, shard.Stats{}, err
	}
	if err := d.Flush(); err != nil {
		return 0, 0, shard.Stats{}, err
	}
	// Arm the sync latency only after setup, as everywhere in the
	// harness: the measurement is the commit phase.
	var syncs0 int64
	for _, dev := range devs {
		dev.SetSyncDelay(syncDelay)
		syncs0 += dev.Stats().Syncs
	}

	flushMus := make([]sync.Mutex, shards)
	var wg sync.WaitGroup
	errCh := make(chan error, committers)
	t0 := time.Now()
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := c % shards
			eng, lst := d.Shard(s), lists[s]
			buf := make([]byte, d.BlockSize())
			for i := 0; i < commitsEach; i++ {
				a, err := d.BeginARU()
				if err != nil {
					errCh <- err
					return
				}
				b, err := d.NewBlock(a, lst, core.NilBlock)
				if err != nil {
					errCh <- err
					return
				}
				buf[0] = byte(c + i)
				if err := d.Write(a, b, buf); err != nil {
					errCh <- err
					return
				}
				if err := endAndFlush(serial, &flushMus[s], func() error { return d.EndARU(a) }, eng.Flush); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	close(errCh)
	for err := range errCh {
		if err != nil {
			return 0, 0, shard.Stats{}, err
		}
	}
	var syncs int64
	for _, dev := range devs {
		syncs += dev.Stats().Syncs
		dev.SetSyncDelay(0) // Close's flush+checkpoint outside the timing
	}
	return elapsed, syncs - syncs0, d.ShardStats(), nil
}

// RunShardScale measures one shard count on both sides.
func RunShardScale(shards, committers, commitsEach int, syncDelay time.Duration) (ShardScaleResult, error) {
	res := ShardScaleResult{
		Shards:      shards,
		Committers:  committers,
		CommitsEach: commitsEach,
		SyncDelay:   syncDelay,
	}
	elapsed, syncs, _, err := runShardScaleSide(shards, committers, commitsEach, syncDelay, true)
	if err != nil {
		return res, fmt.Errorf("serial side: %w", err)
	}
	res.SerialElapsed, res.SerialSyncs = elapsed, syncs
	elapsed, syncs, st, err := runShardScaleSide(shards, committers, commitsEach, syncDelay, false)
	if err != nil {
		return res, fmt.Errorf("group side: %w", err)
	}
	res.GroupElapsed, res.GroupSyncs = elapsed, syncs
	res.FastPath, res.Cross = st.FastPathCommits, st.CrossShardCommits
	return res, nil
}

// RunShardScaleSweep runs RunShardScale for each shard count with the
// same total committer population and per-committer commit count, so
// the rows are directly comparable aggregate throughputs.
func RunShardScaleSweep(shardCounts []int, committers, commitsEach int, syncDelay time.Duration) ([]ShardScaleResult, error) {
	out := make([]ShardScaleResult, 0, len(shardCounts))
	for _, n := range shardCounts {
		r, err := RunShardScale(n, committers, commitsEach, syncDelay)
		if err != nil {
			return out, fmt.Errorf("harness: shard scale %d: %w", n, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// RunShardFastPath times the identical durable-commit workload on a
// bare engine and on a 1-shard sharded disk: the difference is the
// composition's fast-path overhead (routing, unit tracking, the ARU id
// indirection) — everything except 2PC, which a single-shard unit never
// enters.
func RunShardFastPath(committers, commitsEach int, syncDelay time.Duration) (ShardFastPathResult, error) {
	res := ShardFastPathResult{
		Committers:  committers,
		CommitsEach: commitsEach,
		SyncDelay:   syncDelay,
	}

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
	elapsed, err := runFastPathSide(committers, commitsEach, ld.BlockSize(), func(c int) commitFns {
		return commitFns{
			begin:    ld.BeginARU,
			newBlock: func(a core.ARUID) (core.BlockID, error) { return ld.NewBlock(a, lists[c], core.NilBlock) },
			write:    ld.Write,
			end:      ld.EndARU,
			flush:    ld.Flush,
		}
	})
	dev.SetSyncDelay(0)
	if err != nil {
		return res, fmt.Errorf("harness: fast path, bare engine: %w", err)
	}
	res.Unsharded = elapsed

	// Sharded side: one shard, so every unit commits on the fast path
	// and the per-shard flush is the whole disk.
	devs, _, d, err := newShardScaleDisk(1)
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
	eng := d.Shard(0)
	elapsed, err = runFastPathSide(committers, commitsEach, d.BlockSize(), func(c int) commitFns {
		return commitFns{
			begin:    d.BeginARU,
			newBlock: func(a core.ARUID) (core.BlockID, error) { return d.NewBlock(a, slists[c], core.NilBlock) },
			write:    d.Write,
			end:      d.EndARU,
			flush:    eng.Flush,
		}
	})
	devs[0].SetSyncDelay(0)
	if err != nil {
		return res, fmt.Errorf("harness: fast path, sharded: %w", err)
	}
	res.Sharded = elapsed
	return res, nil
}

// commitFns abstracts the two fast-path sides so both run the byte-for-
// byte identical committer loop.
type commitFns struct {
	begin    func() (core.ARUID, error)
	newBlock func(core.ARUID) (core.BlockID, error)
	write    func(core.ARUID, core.BlockID, []byte) error
	end      func(core.ARUID) error
	flush    func() error
}

func runFastPathSide(committers, commitsEach, blockSize int, fns func(c int) commitFns) (time.Duration, error) {
	var wg sync.WaitGroup
	errCh := make(chan error, committers)
	t0 := time.Now()
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f := fns(c)
			buf := make([]byte, blockSize)
			for i := 0; i < commitsEach; i++ {
				a, err := f.begin()
				if err != nil {
					errCh <- err
					return
				}
				b, err := f.newBlock(a)
				if err != nil {
					errCh <- err
					return
				}
				buf[0] = byte(c + i)
				if err := f.write(a, b, buf); err != nil {
					errCh <- err
					return
				}
				if err := f.end(a); err != nil {
					errCh <- err
					return
				}
				if err := f.flush(); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	close(errCh)
	for err := range errCh {
		if err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// SkewPlacement chooses how the hot-key workload's keys map to shards.
type SkewPlacement string

const (
	// PlaceRR creates key lists with the disk's round-robin allocator:
	// adjacent keys land on adjacent shards, so the Zipf head spreads
	// and shard load stays nearly even despite the key skew.
	PlaceRR SkewPlacement = "rr"
	// PlaceRange co-locates contiguous key ranges: key k lands on shard
	// k*shards/keys, putting the entire Zipf head on shard 0 — the hot
	// shard becomes the aggregate bottleneck.
	PlaceRange SkewPlacement = "range"
)

// ShardSkewResult holds one hot-key workload run: ops route to shards
// through the Zipf key→list mapping, so the per-shard counters expose
// how load concentrates and what that does to aggregate throughput.
type ShardSkewResult struct {
	Shards     int
	Committers int
	Workload   workload.Skew
	Placement  SkewPlacement
	SyncDelay  time.Duration

	Elapsed     time.Duration
	PerShardOps []int64 // durably committed units per shard
	HotKeyOps   int     // ops on the single hottest key
}

// PerSec returns aggregate committed units per wall second.
func (r ShardSkewResult) PerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	var total int64
	for _, n := range r.PerShardOps {
		total += n
	}
	return float64(total) / r.Elapsed.Seconds()
}

// Imbalance is the hottest shard's op count over the mean (1.0 =
// perfectly even).
func (r ShardSkewResult) Imbalance() float64 {
	var total, hot int64
	for _, n := range r.PerShardOps {
		total += n
		if n > hot {
			hot = n
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(r.PerShardOps))
	return float64(hot) / mean
}

// RunShardSkew runs the Zipf hot-key workload against a sharded disk:
// every key is one list holding one block, ops overwrite the block of a
// Zipf-drawn key inside an ARU and flush that key's shard. Committers
// partition the deterministic schedule round-robin.
func RunShardSkew(shards, committers int, z workload.Skew, placement SkewPlacement, syncDelay time.Duration) (ShardSkewResult, error) {
	res := ShardSkewResult{
		Shards:     shards,
		Committers: committers,
		Workload:   z,
		Placement:  placement,
		SyncDelay:  syncDelay,
	}
	devs, _, d, err := newShardScaleDisk(shards)
	if err != nil {
		return res, err
	}
	defer d.Close()

	// One list + block per key, committed before the clock starts. For
	// range placement the round-robin allocator is retried until the
	// list lands on the key's target shard (misses are deleted).
	blocks := make([]core.BlockID, z.Keys)
	shardOf := make([]int, z.Keys)
	for k := 0; k < z.Keys; k++ {
		var l core.ListID
		for {
			if l, err = d.NewList(0); err != nil {
				return res, err
			}
			if placement != PlaceRange || d.ShardOfList(l) == k*shards/z.Keys {
				break
			}
			if err := d.DeleteList(0, l); err != nil {
				return res, err
			}
		}
		if blocks[k], err = d.NewBlock(0, l, core.NilBlock); err != nil {
			return res, err
		}
		shardOf[k] = d.ShardOfList(l)
	}
	if err := d.Flush(); err != nil {
		return res, err
	}
	for _, dev := range devs {
		dev.SetSyncDelay(syncDelay)
	}

	sched := z.Schedule()
	counts := z.KeyCounts(sched)
	for _, n := range counts {
		if n > res.HotKeyOps {
			res.HotKeyOps = n
		}
	}
	perShard := make([]atomic.Int64, shards)

	var wg sync.WaitGroup
	errCh := make(chan error, committers)
	t0 := time.Now()
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]byte, d.BlockSize())
			for i := c; i < len(sched); i += committers {
				k := sched[i]
				a, err := d.BeginARU()
				if err != nil {
					errCh <- err
					return
				}
				buf[0], buf[1] = byte(k), byte(i)
				if err := d.Write(a, blocks[k], buf); err != nil {
					errCh <- err
					return
				}
				if err := d.EndARU(a); err != nil {
					errCh <- err
					return
				}
				if err := d.Shard(shardOf[k]).Flush(); err != nil {
					errCh <- err
					return
				}
				perShard[shardOf[k]].Add(1)
			}
			errCh <- nil
		}(c)
	}
	wg.Wait()
	res.Elapsed = time.Since(t0)
	close(errCh)
	for err := range errCh {
		if err != nil {
			return res, err
		}
	}
	for _, dev := range devs {
		dev.SetSyncDelay(0)
	}
	res.PerShardOps = make([]int64, shards)
	for i := range perShard {
		res.PerShardOps[i] = perShard[i].Load()
	}
	return res, nil
}

// FormatShardScale renders the scaling sweep plus the fast-path
// comparison as the experiment table.
func FormatShardScale(results []ShardScaleResult, fp ShardFastPathResult) string {
	if len(results) == 0 {
		return ""
	}
	r0 := results[0]
	out := fmt.Sprintf("Sharded disk: scaling of durable commits, %d committers pinned round-robin, sync delay %v, %d commits/committer\n\n",
		r0.Committers, r0.SyncDelay, r0.CommitsEach)
	out += fmt.Sprintf("  %-7s %12s %8s %12s %8s %7s %7s %10s %6s\n",
		"shards", "serial c/s", "scale", "group c/s", "scale", "syncs", "syncs", "fast path", "cross")
	out += fmt.Sprintf("  %-7s %12s %8s %12s %8s %7s %7s %10s %6s\n",
		"", "", "", "", "", "serial", "group", "", "")
	serialBase, groupBase := results[0].SerialPerSec(), results[0].GroupPerSec()
	for _, r := range results {
		serialScale, groupScale := 0.0, 0.0
		if serialBase > 0 {
			serialScale = r.SerialPerSec() / serialBase
		}
		if groupBase > 0 {
			groupScale = r.GroupPerSec() / groupBase
		}
		out += fmt.Sprintf("  %-7d %12.0f %7.2fx %12.0f %7.2fx %7d %7d %10d %6d\n",
			r.Shards, r.SerialPerSec(), serialScale, r.GroupPerSec(), groupScale,
			r.SerialSyncs, r.GroupSyncs, r.FastPath, r.Cross)
	}
	out += fmt.Sprintf("\n  fast path overhead vs bare engine: unsharded %v, 1-shard %v (%+.1f%%)\n",
		fp.Unsharded.Round(time.Millisecond), fp.Sharded.Round(time.Millisecond), fp.Overhead()*100)
	out += "\n  (serial side, flushes serialized by the driver: every durable commit costs\n" +
		"   its shard one device sync, so N shards run N sync pipelines in parallel —\n" +
		"   near-linear scaling; group side: each shard's broker already coalesces its\n" +
		"   committers' syncs, so committers are bound by commit latency, not the device)\n"
	return out
}

// FormatShardSkew renders the hot-key run with its per-shard split.
func FormatShardSkew(r ShardSkewResult) string {
	out := fmt.Sprintf("Sharded disk: Zipf hot-key workload (%s placement), %d keys s=%.2f, %d ops, %d committers, %d shards, sync delay %v\n\n",
		r.Placement, r.Workload.Keys, r.Workload.S, r.Workload.Ops, r.Committers, r.Shards, r.SyncDelay)
	out += fmt.Sprintf("  aggregate %0.f commits/s, hottest key %d/%d ops, shard imbalance %.2fx\n\n",
		r.PerSec(), r.HotKeyOps, r.Workload.Ops, r.Imbalance())
	out += fmt.Sprintf("  %-7s %10s %12s %7s\n", "shard", "ops", "ops/s", "share")
	var total int64
	for _, n := range r.PerShardOps {
		total += n
	}
	for s, n := range r.PerShardOps {
		share := 0.0
		if total > 0 {
			share = float64(n) / float64(total) * 100
		}
		persec := 0.0
		if r.Elapsed > 0 {
			persec = float64(n) / r.Elapsed.Seconds()
		}
		out += fmt.Sprintf("  %-7d %10d %12.0f %6.1f%%\n", s, n, persec, share)
	}
	return out
}
