package harness

import (
	"fmt"
	"sync"
	"time"

	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/obs"
	"aru/internal/seg"
)

// GroupCommitResult holds one group-commit measurement: the same
// multi-committer workload run once with its flushes serialized by the
// driver and once meeting in the group-commit broker, on a device with a real
// (wall-clock) sync latency. The interesting numbers are the speedup
// (commits per wall second) and the sync amortization (device syncs
// per commit).
type GroupCommitResult struct {
	Committers  int
	CommitsEach int
	SyncDelay   time.Duration

	SerialElapsed time.Duration // wall clock, flushes serialized by the driver
	GroupElapsed  time.Duration // wall clock, group-commit broker
	SerialSyncs   int64
	GroupSyncs    int64

	Batches        int64 // group-commit batches that wrote segments
	BatchedCommits int64 // commit records those batches made durable
	WaitP50        time.Duration
	WaitP99        time.Duration
}

// Speedup is serial wall time over group-commit wall time.
func (r GroupCommitResult) Speedup() float64 {
	if r.GroupElapsed <= 0 {
		return 0
	}
	return float64(r.SerialElapsed) / float64(r.GroupElapsed)
}

// Amortization is serial syncs over group-commit syncs: how many
// device syncs the broker saved on the identical workload.
func (r GroupCommitResult) Amortization() float64 {
	if r.GroupSyncs <= 0 {
		return 0
	}
	return float64(r.SerialSyncs) / float64(r.GroupSyncs)
}

// PerSec returns serial and group commit throughput in commits per
// wall second.
func (r GroupCommitResult) PerSec() (serial, group float64) {
	total := float64(r.Committers * r.CommitsEach)
	if r.SerialElapsed > 0 {
		serial = total / r.SerialElapsed.Seconds()
	}
	if r.GroupElapsed > 0 {
		group = total / r.GroupElapsed.Seconds()
	}
	return serial, group
}

// groupCommitLayout is a small dedicated geometry: segments fill
// quickly so every run exercises sealing, and the disk is large enough
// that the cleaner stays out of the measurement.
func groupCommitLayout() seg.Layout {
	return seg.Layout{
		BlockSize: 4096,
		SegBytes:  65536,
		NumSegs:   256,
		MaxBlocks: 8192,
		MaxLists:  1024,
	}
}

// endAndFlush durably commits one unit: end, then flush. With serial
// it does both under the engine's mu — the "flushes serialized by the
// driver" baseline: no two durability calls of one engine ever meet in
// its broker, so each unit pays a device sync of its own.
func endAndFlush(serial bool, mu *sync.Mutex, end, flush func() error) error {
	if serial {
		mu.Lock()
		defer mu.Unlock()
	}
	if err := end(); err != nil {
		return err
	}
	return flush()
}

// runGroupCommitSide runs committers goroutines, each looping
// commitsEach times over (BeginARU, NewList, NewBlock+Write, EndARU,
// Flush), against a fresh disk whose Sync sleeps for syncDelay of wall
// time; serial makes the driver serialize the flushes (endAndFlush). It
// returns the wall time and device sync count of the commit phase, plus
// the engine for further inspection.
func runGroupCommitSide(committers, commitsEach int, syncDelay time.Duration, serial bool, tr *obs.Tracer) (time.Duration, int64, *core.LLD, error) {
	layout := groupCommitLayout()
	dev := disk.NewMem(layout.DiskBytes())
	ld, err := core.Format(dev, core.Params{Layout: layout, Tracer: tr})
	if err != nil {
		return 0, 0, nil, err
	}
	var flushMu sync.Mutex
	// The delay is armed after Format so setup syncs are free.
	dev.SetSyncDelay(syncDelay)
	syncs0 := dev.Stats().Syncs

	var wg sync.WaitGroup
	errCh := make(chan error, committers)
	t0 := time.Now()
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]byte, ld.BlockSize())
			for i := 0; i < commitsEach; i++ {
				a, err := ld.BeginARU()
				if err != nil {
					errCh <- err
					return
				}
				lst, err := ld.NewList(a)
				if err != nil {
					errCh <- err
					return
				}
				b, err := ld.NewBlock(a, lst, core.NilBlock)
				if err != nil {
					errCh <- err
					return
				}
				buf[0] = byte(c + i)
				if err := ld.Write(a, b, buf); err != nil {
					errCh <- err
					return
				}
				// The durable commit: each committer waits for its own
				// covering sync, exactly what the broker coalesces.
				if err := endAndFlush(serial, &flushMu, func() error { return ld.EndARU(a) }, ld.Flush); err != nil {
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
			return 0, 0, nil, err
		}
	}
	syncs := dev.Stats().Syncs - syncs0
	dev.SetSyncDelay(0) // Close's flush+checkpoint outside the timing
	return elapsed, syncs, ld, nil
}

// RunGroupCommit measures the group-commit broker against the
// serialized-flush baseline: committers concurrent clients each durably
// commit commitsEach small units on a device whose sync costs
// syncDelay of wall time.
func RunGroupCommit(committers, commitsEach int, syncDelay time.Duration) (GroupCommitResult, error) {
	res := GroupCommitResult{
		Committers:  committers,
		CommitsEach: commitsEach,
		SyncDelay:   syncDelay,
	}

	serialElapsed, serialSyncs, ldS, err := runGroupCommitSide(committers, commitsEach, syncDelay, true, nil)
	if err != nil {
		return res, fmt.Errorf("harness: group commit serial side: %w", err)
	}
	defer ldS.Close()
	res.SerialElapsed, res.SerialSyncs = serialElapsed, serialSyncs

	tr := obs.New(obs.Config{RingSize: -1}) // histograms only
	groupElapsed, groupSyncs, ldG, err := runGroupCommitSide(committers, commitsEach, syncDelay, false, tr)
	if err != nil {
		return res, fmt.Errorf("harness: group commit broker side: %w", err)
	}
	defer ldG.Close()
	res.GroupElapsed, res.GroupSyncs = groupElapsed, groupSyncs

	st := ldG.Stats()
	res.Batches = st.CommitBatches
	res.BatchedCommits = st.BatchedCommits
	wait := tr.Histogram(obs.HistGroupCommitWait)
	res.WaitP50 = wait.Quantile(0.50)
	res.WaitP99 = wait.Quantile(0.99)
	return res, nil
}

// RunGroupCommitSweep runs RunGroupCommit for each committer count.
func RunGroupCommitSweep(committerCounts []int, commitsEach int, syncDelay time.Duration) ([]GroupCommitResult, error) {
	out := make([]GroupCommitResult, 0, len(committerCounts))
	for _, n := range committerCounts {
		r, err := RunGroupCommit(n, commitsEach, syncDelay)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// FormatGroupCommit renders a sweep as the experiment table.
func FormatGroupCommit(results []GroupCommitResult) string {
	if len(results) == 0 {
		return ""
	}
	r0 := results[0]
	out := fmt.Sprintf("Group commit: coalesced durability, sync delay %v, %d commits/committer\n\n",
		r0.SyncDelay, r0.CommitsEach)
	out += fmt.Sprintf("  %-10s %12s %12s %8s %7s %7s %7s %9s %12s %12s\n",
		"committers", "serial c/s", "group c/s", "speedup", "syncs", "syncs", "amort", "batchsize", "wait p50", "wait p99")
	out += fmt.Sprintf("  %-10s %12s %12s %8s %7s %7s %7s %9s %12s %12s\n",
		"", "", "", "", "serial", "group", "", "", "", "")
	for _, r := range results {
		serial, group := r.PerSec()
		batchSize := 0.0
		if r.Batches > 0 {
			batchSize = float64(r.BatchedCommits) / float64(r.Batches)
		}
		out += fmt.Sprintf("  %-10d %12.0f %12.0f %7.1fx %7d %7d %6.1fx %9.1f %12v %12v\n",
			r.Committers, serial, group, r.Speedup(), r.SerialSyncs, r.GroupSyncs,
			r.Amortization(), batchSize, r.WaitP50.Round(time.Microsecond), r.WaitP99.Round(time.Microsecond))
	}
	out += "\n  (extension: the paper's Flush is one serial log force; this is the\n" +
		"   classic batched group commit on the same committed→persistent path)\n"
	return out
}
