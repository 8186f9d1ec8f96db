package main

import (
	"fmt"
	"reflect"

	"aru"
)

// runResult is one run of one workload, as written to the -out file.
type runResult struct {
	Workload   string `json:"workload"`
	Traced     bool   `json:"traced"`
	Attempted  int64  `json:"attempted"`
	Failed     int64  `json:"failed"`
	Violations int64  `json:"violations"`
	FirstError string `json:"first_error,omitempty"`
	// FailedFrac is failed ÷ attempted: op errors plus correctness
	// violations.
	FailedFrac  float64 `json:"failed_frac"`
	WarmupOps   int64   `json:"warmup_ops"`
	MeasuredOps int64   `json:"measured_ops"`
	// Samples is how many op latencies the percentiles are over.
	Samples int64   `json:"samples"`
	WallS   float64 `json:"wall_s"`
	// The slices as measured, and the host's speed factor around each
	// (reference kernel time ÷ nominal; above 1 is a slow host). The
	// timing metrics are medians over slices of measured ÷ speed.
	SliceOpsPerS   []float64 `json:"slice_ops_per_s"`
	SliceP50Us     []float64 `json:"slice_op_p50_us"`
	SliceCPUUs     []float64 `json:"slice_cpu_us_per_op"`
	SliceHostSpeed []float64 `json:"slice_host_speed"`
	RawSetupS      float64   `json:"raw_setup_s"`
	LogWrittenX    float64   `json:"log_written_x"` // device bytes written ÷ log capacity
	OpStreamHash   string    `json:"op_stream_hash"`
	SampleOneInN   int64     `json:"trace_sample_one_in,omitempty"`
	// SelfUsPerOp is each layer's self time per sampled op, and
	// SampledOpUs the mean duration of those ops: on a single-client
	// workload the first adds up to the second.
	SelfUsPerOp map[string]float64 `json:"self_us_per_op,omitempty"`
	SampledOpUs float64            `json:"sampled_op_us,omitempty"`
	MeanOpUs    float64            `json:"mean_op_us"`
	// OpsPerS is the median slice throughput and OpP50Us the median
	// slice's median op latency, both in reference time. On an untraced
	// run the first is the ops_per_s metric; on a traced run the second
	// is client.op_p50_us.
	OpsPerS float64   `json:"ops_per_s"`
	OpP50Us float64   `json:"op_p50_us"`
	Metrics metricSet `json:"metrics"`
}

// layerInput is what a workload's own per-layer code gets to look at.
type layerInput struct {
	e     *env
	m     *measurement
	ops   float64 // successful measured ops
	stats aru.Stats
}

// statsDelta returns b − a, counter by counter.
func statsDelta(a, b aru.Stats) aru.Stats {
	d, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < d.NumField(); i++ {
		d.Field(i).SetInt(vb.Field(i).Int() - d.Field(i).Int())
	}
	return a
}

func newRunResult(def *workloadDef, cfg config, m *measurement, inst *instance) *runResult {
	lat, attempted, failed, violated, userBytes, firstErr := m.totals()
	r := &runResult{
		Workload: def.name, Traced: cfg.traced,
		Attempted: attempted, Failed: failed, Violations: violated,
		WarmupOps: m.warmOps, MeasuredOps: attempted - failed, Samples: lat.n,
		WallS: m.wall.Seconds(), SampleOneInN: m.sampleN,
		MeanOpUs: lat.meanNs() / 1e3, Metrics: metricSet{},
	}
	if firstErr != nil {
		r.FirstError = firstErr.Error()
	}
	if attempted > 0 {
		r.FailedFrac = float64(failed) / float64(attempted)
	}
	r.OpStreamHash = fmt.Sprintf("%016x", inst.hash())
	ops := float64(r.MeasuredOps)
	if ops == 0 {
		return r
	}
	devWritten := float64(m.written1 - m.written0)
	r.SliceOpsPerS, r.SliceP50Us, r.SliceCPUUs, r.SliceHostSpeed = m.rate, m.p50us, m.cpuUs, m.speed
	r.RawSetupS = m.rawSetupS
	// Reference time: what the slice would have taken on a host on which
	// the reference kernel runs at its nominal speed. CPU time always
	// scales with the host; wall time does unless the workload sleeps.
	n := len(r.SliceHostSpeed)
	rate, p50, cpu := make([]float64, n), make([]float64, n), make([]float64, n)
	for k, speed := range r.SliceHostSpeed {
		wall := speed
		if def.sleeps {
			wall = 1
		}
		rate[k], p50[k], cpu[k] = r.SliceOpsPerS[k]*wall, r.SliceP50Us[k]/wall, r.SliceCPUUs[k]/speed
	}
	r.OpsPerS, r.OpP50Us = median(rate), median(p50)
	r.LogWrittenX = float64(m.written1) / float64(m.devBytes)
	if inst.logWrittenX > 0 {
		r.LogWrittenX = inst.logWrittenX
	}
	if cfg.traced {
		r.Metrics.set("client.op_p50_us", r.OpP50Us)
		r.Metrics.set("client.op_p99_us", lat.quantile(0.99)/1e3)
		r.Metrics.set("client.op_p999_us", lat.quantile(0.999)/1e3)
		return r
	}
	r.Metrics.set("ops_per_s", r.OpsPerS)
	r.Metrics.set("cpu_us_per_op", median(cpu))
	switch {
	case inst.devBytesPerUserByte > 0:
		r.Metrics.set("dev_bytes_per_user_byte", inst.devBytesPerUserByte)
	case userBytes > 0:
		r.Metrics.set("dev_bytes_per_user_byte", devWritten/float64(userBytes))
	}
	r.Metrics.set("alloc_bytes_per_op", float64(m.allocB)/ops)
	// The simulated media live on the Go heap; they are the disk, not
	// the program's memory, so their capacity is taken out.
	r.Metrics.set("heap_live_mb", (float64(m.heapLive)-float64(m.devBytes))/(1<<20))
	r.Metrics.set("setup_s", m.setupS)
	return r
}

// histDelta returns the mean in µs and the count of the samples the
// engine's histogram name gained over the measured region.
func (m *measurement) histDelta(name string) (meanUs float64, n uint64, sumNs int64) {
	h0, h1 := m.hists0[name], m.hists1[name]
	n = h1.Count - h0.Count
	sumNs = h1.SumNs - h0.SumNs
	if n > 0 {
		meanUs = float64(sumNs) / float64(n) / 1e3
	}
	return
}

// addLayerMetrics fills in the per-layer metrics of a traced run.
func (r *runResult) addLayerMetrics(e *env, m *measurement, inst *instance) {
	ops := float64(r.MeasuredOps)
	if ops == 0 {
		return
	}
	out, tr := r.Metrics, e.tr
	st := statsDelta(m.stats0, m.stats1)
	lat, _, _, _, userBytes, _ := m.totals()

	// disk
	out.set("disk.writes_per_op", float64(m.dev.Writes)/ops)
	out.set("disk.write_bytes_per_op", float64(m.dev.BytesWritten)/ops)
	out.set("disk.reads_per_op", float64(m.dev.Reads)/ops)
	out.set("disk.read_bytes_per_op", float64(m.dev.BytesRead)/ops)
	out.set("disk.syncs_per_op", float64(m.dev.Syncs)/ops)
	out.set("disk.busy_us_per_op", float64(m.dev.BusyNs)/1e3/ops)
	var syncs hist
	for _, d := range e.tdevs {
		d.mu.Lock()
		syncs.merge(&d.syncHist)
		d.mu.Unlock()
	}
	out.setIf("disk.sync_us_p50", syncs.quantile(0.5)/1e3, syncs.n > 0)

	// LD call sites. On shard_2pc they time the sharded disk and are
	// reported by the workload as shard.* instead.
	if def := e.def; def.ldLayer == layerCore {
		for _, c := range []struct {
			name string
			k    spanKind
		}{
			{"core.begin_us", kBegin}, {"core.write_us", kWrite}, {"core.newblock_us", kNewBlock},
			{"core.delete_us", kDelete}, {"core.end_us", kEnd}, {"core.commit_durable_us", kCommitDurable},
			{"core.read_us", kRead}, {"core.flush_us", kFlush},
		} {
			v, ok := tr.meanUs(c.k)
			out.setIf(c.name, v, ok)
		}
	}

	// Stats() deltas.
	kops := ops / 1000
	out.set("core.segments_per_kop", float64(st.SegmentsWritten)/kops)
	if st.SegmentsWritten > 0 {
		slots := float64(st.SegmentsWritten) * float64(blocksPerSeg)
		out.set("core.seg_fill_frac", float64(st.BlocksMaterialized+st.BlocksRelocated)/slots)
	}
	out.set("core.entries_logged_per_op", float64(st.EntriesLogged)/ops)
	out.set("core.coalesced_writes_per_op", float64(st.CoalescedWrites)/ops)
	out.set("core.epochs_per_op", float64(st.EpochsPublished)/ops)
	out.set("core.merge_fallbacks", float64(st.MergeFallbacks))
	out.set("core.checkpoints_per_kop", float64(st.Checkpoints)/kops)
	out.set("core.segments_cleaned_per_kop", float64(st.SegmentsCleaned)/kops)
	if userBytes > 0 {
		out.set("core.relocated_per_user_block", float64(st.BlocksRelocated)/(float64(userBytes)/float64(blockSize)))
	}
	out.setIf("core.commits_per_batch", float64(st.BatchedCommits)/float64(st.CommitBatches), st.CommitBatches > 0)
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		out.set("core.cache_hit_ratio", float64(st.CacheHits)/float64(lookups))
		out.set("core.cache_misses_per_op", float64(st.CacheMisses)/ops)
	}

	// The engine's shipped Tracer histograms.
	for _, h := range []struct{ metric, hist string }{
		{"core.segment_flush_us", "segment_flush"}, {"core.checkpoint_us", "checkpoint"},
		{"core.checkpoint_delta_us", "checkpoint_delta"}, {"core.cleaner_pass_us", "cleaner_pass"},
		{"core.group_commit_wait_us", "group_commit_wait"}, {"core.commit_to_durable_us", "commit_durable"},
		{"core.recover_scan_us", "recovery_scan"}, {"shard.prepare_us", "twopc_prepare"},
		{"shard.coord_commit_us", "coord_commit"},
	} {
		mean, n, _ := m.histDelta(h.hist)
		out.setIf(h.metric, mean, n > 0)
	}
	_, _, cleanNs := m.histDelta("cleaner_pass")
	out.set("core.cleaner_busy_frac", float64(cleanNs)/float64(m.wall.Nanoseconds()))
	out.set("core.stall_ops_frac", lat.fracAbove(10*lat.quantile(0.5)))

	// Self times from the span tree.
	self, sampled, opNs := tr.selfTimes()
	if sampled > 0 {
		r.SampledOpUs = float64(opNs) / 1e3 / float64(sampled)
		r.SelfUsPerOp = make(map[string]float64)
		for layer, ns := range self {
			r.SelfUsPerOp[layer] = float64(ns) / 1e3 / float64(sampled)
		}
		out.set("client.gen_us_per_op", r.SelfUsPerOp[layerClient])
		if tr.single {
			// With one op in flight every span hangs under it, so the
			// layers' self times add up to the op.
			for layer, name := range map[string]string{
				layerCore: "core.self_us_per_op", layerShard: "shard.self_us_per_op",
				layerNet: "ldnet.self_us_per_op", layerFS: "minixfs.self_us_per_op",
			} {
				v, ok := r.SelfUsPerOp[layer]
				out.setIf(name, v, ok)
			}
		}
	}
	out.set("trace.spans", float64(len(tr.recorded())))
	out.set("trace.dropped", float64(tr.dropped.Load()))

	if inst.layers != nil {
		inst.layers(layerInput{e: e, m: m, ops: ops, stats: st}, out)
	}
}
