package main

import (
	"fmt"

	"aru"
)

// shard_2pc: four shards of 128 segments and a coordinator device, all
// in memory with a free Sync, one client, 16 lists of 256 blocks. Half
// the units touch one shard and end with CommitDurable (the fast path,
// the bypass case for 2PC changes); half touch three shards and end
// with EndARU, which is two-phase commit and durable at return. One
// client only: two clients committing cross-shard units run the seed
// engine out of space (README.md, "Seed facts").
const (
	shardCount    = 4
	shardSegs     = 128
	shardLists    = 16
	shardPerList  = 256
	coordRecords  = 4096
	coordCkptUnit = 2048 // Checkpoint after this many cross-shard units: it reclaims the coordinator log
)

type shardClient struct {
	sd    *aru.ShardedDisk
	ld    ldOps
	ctx   *opCtx
	gen   *unitGen
	lists [shardCount][]int // model list indices by shard
	cross int64             // cross-shard units committed since the last Checkpoint
	// The unit in progress: its first shard and whether it is cross-shard.
	first   int
	isCross bool

	// Traced runs split the device counters by unit kind.
	tdevs                  []*tracedDev // the shard devices, then the coordinator
	nCross                 int64
	shardCross, coordCross devCounts
}

// isCross says whether unit i touches three shards. Kinds alternate in
// pairs that flip every four units, so that the list operation of every
// fourth unit falls on both kinds in turn.
func isCross(i int) bool { return (i+i/4)%2 == 1 }

// pickList puts the j-th overwrite of a cross-shard unit on the j-th
// shard after the first, and every overwrite of a fast unit on the first.
func (c *shardClient) pickList(j int) int {
	s := c.first
	if c.isCross {
		s = (c.first + j) % shardCount
	}
	return c.lists[s][c.gen.rng.Intn(len(c.lists[s]))]
}

func (c *shardClient) op(i int) (int, error) {
	g := c.gen
	c.first, c.isCross = g.rng.Intn(shardCount), isCross(i)
	cross := c.isCross
	var before [shardCount + 1]devCounts
	for k, d := range c.tdevs {
		before[k] = d.counts()
	}
	end := endDurable
	if cross {
		end = endARU
	}
	n, err := g.unit(c.ld, end)
	if cross && c.tdevs != nil {
		c.nCross++
		for k, d := range c.tdevs {
			delta := d.counts().sub(before[k])
			if k < shardCount {
				c.shardCross = c.shardCross.add(delta)
			} else {
				c.coordCross = c.coordCross.add(delta)
			}
		}
	}
	if err != nil || !cross {
		return n, err
	}
	if c.cross++; c.cross == coordCkptUnit {
		c.cross = 0
		s := c.ctx.enter(kCheckpoint)
		err = c.sd.Checkpoint()
		c.ctx.exit(s)
	}
	return n, err
}

func setupShard2PC(e *env) (*instance, error) {
	l := aru.DefaultLayout(shardSegs)
	var devs []aru.Device
	for s := 0; s < shardCount; s++ {
		devs = append(devs, e.memDevice(l.DiskBytes(), 0))
	}
	coord := e.memDevice(aru.ShardCoordBytes(coordRecords), 0)
	sd, err := aru.FormatSharded(devs, coord, aru.ShardOptions{Params: e.params(l), Tracer: e.etr})
	if err != nil {
		return nil, fmt.Errorf("FormatSharded: %w", err)
	}
	buf := make([]byte, blockSize)
	set, err := populate(sd, shardLists, shardPerList, buf)
	if err != nil {
		return nil, err
	}
	c := &shardClient{sd: sd, ld: e.ld(sd, 0), ctx: e.ctx(0), tdevs: e.tdevs,
		gen: newUnitGen(set, allLists(shardLists), e.cfg.seed*16, blockSize)}
	c.gen.pickList = c.pickList
	for li, lst := range set.lists {
		s := sd.ShardOfList(lst)
		c.lists[s] = append(c.lists[s], li)
	}
	for s, ls := range c.lists {
		if len(ls) == 0 {
			return nil, fmt.Errorf("shard %d got no list", s)
		}
	}
	var st0 aru.ShardedStats
	return &instance{
		clients: []opFunc{c.op},
		close:   func() { _ = sd.Close() },
		stats:   sd.Stats,
		mark: func() {
			st0 = sd.ShardStats()
			c.nCross, c.shardCross, c.coordCross = 0, devCounts{}, devCounts{}
		},
		hash: func() uint64 { return c.gen.hash },
		verify: func() error {
			if err := sd.Flush(); err != nil {
				return violation("final Flush: %v", err)
			}
			if err := set.verify(sd, allLists(shardLists), buf); err != nil {
				return err
			}
			if err := sd.VerifyInternal(); err != nil {
				return violation("VerifyInternal: %v", err)
			}
			return nil
		},
		layers: func(in layerInput, out metricSet) {
			tr, st1 := in.e.tr, sd.ShardStats()
			fast := st1.FastPathCommits - st0.FastPathCommits
			crossed := st1.CrossShardCommits - st0.CrossShardCommits
			out.setIf("shard.fast_commits_frac", float64(fast)/float64(fast+crossed), fast+crossed > 0)
			v, ok := tr.meanUs(kCommitDurable)
			out.setIf("shard.end_fast_us", v, ok)
			v, ok = tr.meanUs(kEnd)
			out.setIf("shard.end_cross_us", v, ok)
			if n := float64(c.nCross); n > 0 {
				out.set("shard.dev_syncs_per_cross", float64(c.shardCross.Syncs)/n)
				out.set("shard.dev_write_bytes_per_cross", float64(c.shardCross.BytesWritten)/n)
				out.set("shard.coord_syncs_per_cross", float64(c.coordCross.Syncs)/n)
				out.set("shard.coord_write_bytes_per_cross", float64(c.coordCross.BytesWritten)/n)
			}
			var max, sum float64
			for s := range st1.PerShard {
				w := float64(st1.PerShard[s].SegmentsWritten - st0.PerShard[s].SegmentsWritten)
				sum += w
				if w > max {
					max = w
				}
			}
			out.setIf("shard.imbalance", max/(sum/shardCount), sum > 0)
		},
	}, nil
}
