//go:build linux

package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"syscall"
	"testing"
	"time"

	"aru/internal/alloctest"
	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/seg"
)

// The scale-free gate's history: churn's unit — three uniform overwrites
// of live blocks in one ARU, a Flush every 256 units — on churn's log, 68 %
// full with lists of 100 blocks, scaled by k. Everything that sizes the
// engine scales with the log: the cache, and the cleaner's low-water mark
// (which it cleans back up to), so the free reserve is the same fraction
// of the log at every scale. The chain is never compacted on schedule (CkptCompactEvery), so a
// base — which is O(live) by design, like a mount's checkpoint load — is
// written only when its region fills.
const (
	sfSegs         = 64
	sfLists        = 56
	sfListBlocks   = 100
	sfCacheBlocks  = 1024
	sfLowWater     = 8
	sfFlushEvery   = 256
	sfCompactEvery = 1 << 20
	sfWarmWrites   = 2
	sfGCPercent    = 20

	// The gate: churn's history on 1x and 16x its log
	// (64 and 1 024 paper-sized segments), measured in alternating
	// slices; the window spans two of the 16x cleaner's cycles. The
	// cleaner must do the same work per user block at both scales
	// (within 15%), and with that, an op at 16x may cost at most 2.5x
	// the CPU of an op at 1x. A cleaner that walks the block map per
	// batch costs about 4x; without the walk it is 1.4-1.8x, the rest
	// being the cache purge and victim scan per segment, which are linear
	// in the log, and a 16x larger working set in memory, which makes the
	// 16x side the more sensitive to a busy host. The ceiling comes down
	// as those go. At 1x the cleaner relocates at most two blocks per
	// user block: one that cleans past its low-water mark keeps a quarter
	// of the log empty and reads 2.75.
	sfScaleHi        = 16
	sfSlices         = 8
	sfSliceOps       = 4000
	sfSeed           = 841
	sfMaxRelocSpread = 0.15
	sfMaxCPURatio    = 2.5
	sfMaxReloc       = 2.0
)

// scaleFreeRow is one scale's measurement.
type scaleFreeRow struct {
	K            int           // scale: k times the segments, cache, live blocks and cleaner marks
	Segs, Live   int           // log segments, live blocks
	Ops          int           // units measured
	CPUPerOp     time.Duration // CPU of the driving thread per unit over the window
	AllocsPerOp  float64       // heap allocations per unit over the window
	HeapPerLive  float64       // live heap bytes per live block after the window, device image excluded
	RelocPerUser float64       // blocks the cleaner relocated per block the units wrote
	Cleaned      int64         // segments cleaned in the window
}

func (r scaleFreeRow) String() string {
	return fmt.Sprintf("%2dx (%d segments, %d live blocks): %.1f us CPU/op, %.1f allocs/op, %.0f B heap/live block, %.2f relocated/user block (%d segments cleaned in %d units)",
		r.K, r.Segs, r.Live, float64(r.CPUPerOp)/float64(time.Microsecond), r.AllocsPerOp, r.HeapPerLive, r.RelocPerUser, r.Cleaned, r.Ops)
}

// scaleFree is one scale's engine with its history's generator.
type scaleFree struct {
	k      int
	dev    *disk.Sim
	d      *core.LLD
	blocks []core.BlockID
	rng    *rand.Rand
	buf    []byte
	units  int
}

// newScaleFree formats the k-times log, populates it and runs the history
// until the cleaner has cleaned as many segments as the log has, so every
// segment has been a victim or a fresh head at least about once.
func newScaleFree(k int, seed int64) (*scaleFree, error) {
	l := seg.DefaultLayout(sfSegs * k)
	p := core.Params{
		Layout:           l,
		CacheBlocks:      sfCacheBlocks * k,
		CleanerLowWater:  sfLowWater * k,
		CkptCompactEvery: sfCompactEvery,
	}
	dev := disk.NewMem(l.DiskBytes())
	d, err := core.Format(dev, p)
	if err != nil {
		return nil, err
	}
	s := &scaleFree{k: k, dev: dev, d: d, rng: rand.New(rand.NewSource(seed)), buf: make([]byte, l.BlockSize)}
	for i := 0; i < sfLists*k; i++ {
		lst, err := d.NewList(seg.SimpleARU)
		if err != nil {
			return nil, err
		}
		pred := core.NilBlock
		for j := 0; j < sfListBlocks; j++ {
			b, err := d.NewBlock(seg.SimpleARU, lst, pred)
			if err != nil {
				return nil, err
			}
			s.buf[0], s.buf[1] = byte(i), byte(j)
			if err := d.Write(seg.SimpleARU, b, s.buf); err != nil {
				return nil, err
			}
			s.blocks = append(s.blocks, b)
			pred = b
		}
	}
	if err := d.Flush(); err != nil {
		return nil, err
	}
	for st := d.Stats(); st.SegmentsCleaned < int64(l.NumSegs) || st.Writes < sfWarmWrites*int64(len(s.blocks)); st = d.Stats() {
		if err := s.run(sfFlushEvery); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// run issues n units.
func (s *scaleFree) run(n int) error {
	for i := 0; i < n; i++ {
		a, err := s.d.BeginARU()
		if err != nil {
			return err
		}
		for j := 0; j < 3; j++ {
			s.buf[0], s.buf[1] = byte(s.units), byte(j)
			if err := s.d.Write(a, s.blocks[s.rng.Intn(len(s.blocks))], s.buf); err != nil {
				return err
			}
		}
		if err := s.d.EndARU(a); err != nil {
			return err
		}
		if s.units++; s.units%sfFlushEvery == 0 {
			if err := s.d.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// threadCPU returns the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runScaleFree builds one engine per scale in ks, warms each up, then
// measures them in slices of ops units, alternating between the scales so
// that a host whose speed drifts moves every scale alike. All of it runs
// on one locked OS thread, whose CPU time is the engine's alone: the
// collector's background work runs on other threads.
func runScaleFree(ks []int, nSlices, ops int, seed int64) ([]scaleFreeRow, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// The device images are most of the heap and hold no pointers: a
	// collection costs little more for them, and without it the heap would
	// double them before collecting.
	defer debug.SetGCPercent(debug.SetGCPercent(sfGCPercent))
	var engines []*scaleFree
	defer func() {
		for _, s := range engines {
			_ = s.d.Close()
		}
	}()
	for _, k := range ks {
		s, err := newScaleFree(k, seed)
		if err != nil {
			return nil, fmt.Errorf("%dx: %w", k, err)
		}
		engines = append(engines, s)
	}
	rows := make([]scaleFreeRow, len(ks))
	start := make([]core.Stats, len(ks))
	var cpu []time.Duration
	var mallocs []uint64
	for j, s := range engines {
		start[j] = s.d.Stats()
		cpu, mallocs = append(cpu, 0), append(mallocs, 0)
	}
	var ms runtime.MemStats
	for i := 0; i < nSlices; i++ {
		for j, s := range engines {
			runtime.ReadMemStats(&ms)
			m0, c0 := ms.Mallocs, threadCPU()
			if err := s.run(ops); err != nil {
				return nil, fmt.Errorf("%dx: %w", s.k, err)
			}
			cpu[j] += threadCPU() - c0
			runtime.ReadMemStats(&ms)
			mallocs[j] += ms.Mallocs - m0
		}
	}
	for j, s := range engines {
		st, n := s.d.Stats(), nSlices*ops
		rows[j] = scaleFreeRow{
			K:            s.k,
			Segs:         s.d.Params().Layout.NumSegs,
			Live:         len(s.blocks),
			Ops:          n,
			CPUPerOp:     cpu[j] / time.Duration(n),
			AllocsPerOp:  float64(mallocs[j]) / float64(n),
			RelocPerUser: float64(st.BlocksRelocated-start[j].BlocksRelocated) / float64(st.Writes-start[j].Writes),
			Cleaned:      st.SegmentsCleaned - start[j].SegmentsCleaned,
		}
	}
	// Heap per live block: what stops being reachable when the engine is
	// dropped, its device image taken out.
	for j := len(engines) - 1; j >= 0; j-- {
		dev, live := engines[j].dev.Size(), liveHeap()
		_ = engines[j].d.Close()
		engines[j], engines = nil, engines[:j]
		rows[j].HeapPerLive = float64(int64(live-liveHeap())-dev) / float64(rows[j].Live)
	}
	return rows, nil
}

// liveHeap returns the bytes of heap reachable after a collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestGateScaleFree: an op must not cost more because the disk is
// larger. A cleaner that walks the block map, or any per-op path linear
// in the segments, shows here as CPU per op growing with the scale.
// Checkpoint bases, O(live) by design, are rare at both scales.
func TestGateScaleFree(t *testing.T) {
	if testing.Short() || alloctest.RaceEnabled {
		t.Skip("a 512 MB log and a CPU ratio: run unraced and without -short")
	}
	rows, err := runScaleFree([]int{1, sfScaleHi}, sfSlices, sfSliceOps, sfSeed)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := rows[0], rows[1]
	for _, r := range rows {
		t.Logf("gate row: %v", r)
		if r.Cleaned == 0 {
			t.Errorf("%dx: the cleaner cleaned nothing in the window", r.K)
		}
	}
	spread := hi.RelocPerUser/lo.RelocPerUser - 1
	ratio := float64(hi.CPUPerOp) / float64(lo.CPUPerOp)
	t.Logf("gate row: %dx/1x CPU per op %.2fx (ceiling %.2fx), relocation per user block %+.1f%%", sfScaleHi, ratio, sfMaxCPURatio, spread*100)
	if spread > sfMaxRelocSpread || spread < -sfMaxRelocSpread {
		t.Fatalf("the cleaner relocated %.2f blocks per user block at %dx and %.2f at 1x: the scales do not run the same history",
			hi.RelocPerUser, sfScaleHi, lo.RelocPerUser)
	}
	if lo.RelocPerUser > sfMaxReloc {
		t.Errorf("the cleaner relocated %.2f blocks per user block at 1x (ceiling %.2f)", lo.RelocPerUser, sfMaxReloc)
	}
	if ratio > sfMaxCPURatio {
		t.Errorf("an op costs %v of CPU at %dx and %v at 1x, %.2fx (ceiling %.2fx)", hi.CPUPerOp, sfScaleHi, lo.CPUPerOp, ratio, sfMaxCPURatio)
	}
}
