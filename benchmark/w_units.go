package main

import (
	"fmt"
	"time"

	"aru"
)

// Every workload uses the paper's format: 4 KB blocks in 0.5 MB
// segments.
const blockSize = 4096

var blocksPerSeg = aru.DefaultLayout(1).BlocksPerSeg()

// formatDisk formats a fresh in-memory device of segs segments.
func formatDisk(e *env, segs int, syncDelay time.Duration) (*aru.Disk, error) {
	l := aru.DefaultLayout(segs)
	d, err := aru.Format(e.memDevice(l.DiskBytes(), syncDelay), e.params(l))
	if err != nil {
		return nil, fmt.Errorf("format: %w", err)
	}
	return d, nil
}

func allLists(n int) []int {
	l := make([]int, n)
	for i := range l {
		l[i] = i
	}
	return l
}

// unitWorkload sets up the workloads that run the plain unit against a
// local disk: segs segments, nLists lists of per live blocks split
// evenly over clients, units ended by end, and a Flush after every
// flushEvery units (0 = never).
func unitWorkload(e *env, segs, nLists, per int, syncDelay time.Duration, end endKind, flushEvery int) (*instance, error) {
	d, err := formatDisk(e, segs, syncDelay)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, blockSize)
	set, err := populate(d, nLists, per, buf)
	if err != nil {
		return nil, err
	}
	inst := &instance{
		close: func() { _ = d.Close() },
		stats: d.Stats,
	}
	var gens []*unitGen
	share := nLists / e.def.clients
	for c := 0; c < e.def.clients; c++ {
		g := newUnitGen(set, allLists(nLists)[c*share:(c+1)*share], e.cfg.seed*16+int64(c), blockSize)
		ld := e.ld(d, c)
		gens = append(gens, g)
		inst.clients = append(inst.clients, func(i int) (int, error) {
			n, err := g.unit(ld, end)
			if err == nil && flushEvery > 0 && (i+1)%flushEvery == 0 {
				err = ld.Flush()
			}
			return n, err
		})
	}
	inst.hash = func() (h uint64) {
		for _, g := range gens {
			h ^= g.hash
		}
		return h
	}
	inst.verify = func() error {
		if err := d.Flush(); err != nil {
			return violation("final Flush: %v", err)
		}
		if err := set.verify(d, allLists(nLists), buf); err != nil {
			return err
		}
		if err := d.VerifyInternal(); err != nil {
			return violation("VerifyInternal: %v", err)
		}
		return nil
	}
	return inst, nil
}

// aru_commit: 256 segments, 4 096 live blocks on 64 lists (12 % full),
// EndARU, Flush every 256 units.
func setupARUCommit(e *env) (*instance, error) {
	return unitWorkload(e, 256, 64, 64, 0, endARU, 256)
}

// churn: the same unit on 64 segments with 5 600 live blocks (68 %
// full), so the log wraps many times and the cleaner has to copy.
func setupChurn(e *env) (*instance, error) {
	return unitWorkload(e, 64, 56, 100, 0, endARU, 256)
}

// durable_commit: two clients on a device whose Sync takes 1 ms, each
// ending its units with CommitDurable. 1 024 live blocks.
//
// Two committers on a zero-latency device run the seed engine out of
// space (maintenance is skipped while any ARU is open, and one always
// is), and time.Sleep makes a 200 µs sync cost about 1 ms anyway; see
// README.md, "Seed facts".
func setupDurableCommit(e *env) (*instance, error) {
	return unitWorkload(e, 256, 16, 64, time.Millisecond, endDurable, 0)
}
