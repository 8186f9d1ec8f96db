package main

// The catalogue fixes the names later changes refer to. BENCHMARK.json
// at the repository root lists the same workloads and metrics; a test
// keeps the two equal.

// metricDef describes one metric. For an end-to-end metric bound is the
// share of the parent's median by which it may worsen; for a per-layer
// metric moves says which end-to-end metric it should move, and where —
// on every other workload the prediction is no change.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	moves  string
}

// workloadDef describes one workload. ops is the total op count per
// client at scale 1 (a tenth of it is warm-up).
type workloadDef struct {
	name      string
	why       string
	ops       int
	clients   int
	procs     int // GOMAXPROCS while the workload runs
	timeEvery int // one op in timeEvery is timed
	// sleeps marks a workload whose ops wait on a timer (the 1 ms sync):
	// its wall-clock metrics do not move with the host's speed and are
	// reported as measured.
	sleeps bool
	// netShare is the share of the op that is system calls and goroutine
	// hand-offs over a loopback connection rather than the engine: the
	// host's speed is read from the loopback kernel to that share and
	// from the memory kernel for the rest (calib.go).
	netShare float64
	ldLayer  string // the layer the LD call sites belong to
	setup    func(e *env) (*instance, error)
}

func workloads() []*workloadDef {
	return []*workloadDef{
		{name: "aru_commit", ops: 300000, clients: 1, procs: 2, timeEvery: 1, ldLayer: layerCore, setup: setupARUCommit,
			why: "1 client, free device, 12% full log: shadow, merge, replay, publish and segment fill in core are all of the cost"},
		{name: "churn", ops: 60000, clients: 1, procs: 2, timeEvery: 1, ldLayer: layerCore, setup: setupChurn,
			why: "same unit on a 68% full log: the cleaner relocates several blocks per user block, so write amplification and stalls show"},
		{name: "durable_commit", ops: 2500, clients: 2, procs: 2, timeEvery: 1, sleeps: true, ldLayer: layerCore, setup: setupDurableCommit,
			why: "2 clients ending units with CommitDurable on a 1 ms sync: group commit, seal, write, sync; engine CPU barely matters"},
		{name: "read_mostly", ops: 1500000, clients: 2, procs: 2, timeEvery: 8, ldLayer: layerCore, setup: setupReadMostly,
			why: "15 Zipf reads per one-block commit over 8x the block cache, 2 clients: the lock-free MVCC read path beside writers"},
		{name: "fs_smallfile", ops: 200000, clients: 1, procs: 2, timeEvery: 1, ldLayer: layerCore, setup: setupFSSmallFile,
			why: "the paper's small-file workload in wall clock: minixfs path walks and inode updates above an engine doing small units"},
		{name: "net_aru", ops: 120000, clients: 1, procs: 1, timeEvery: 1, netShare: 0.6, ldLayer: layerCore, setup: setupNetARU,
			why: "units over one loopback connection with pipelined writes, on one P: ldnet framing, flusher and dispatch dwarf the engine"},
		{name: "shard_2pc", ops: 12000, clients: 1, procs: 2, timeEvery: 1, ldLayer: layerShard, setup: setupShard2PC,
			why: "4 shards, units alternate single-shard fast path and three-shard 2PC: routing, fan-out and the coordinator log"},
		{name: "recovery", ops: 222, clients: 1, procs: 2, timeEvery: 1, ldLayer: layerCore, setup: setupRecovery,
			why: "mounting a crashed image: checkpoint load and log replay, with the durability contract checked after every mount"},
	}
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// endToEnd lists the metrics a user of the disk would see. Every one is
// reported on every workload by an untraced run. The timings are
// medians over the slices of a run, in reference time (calib.go): the
// speed of the sandbox's shared vCPUs moves by tens of percent over
// minutes, and a reading of the host between slices takes that out.
// Their bounds stay as wide as the contract allows; the counted metrics
// repeat to a fraction of a percent. The median op latency is not here
// but under the per-layer metrics (client.op_p50_us): the fast path it
// times is the code most sensitive to the host's caches, and its spread
// between runs of the same code stayed above a third of any allowed
// bound. With one closed-loop client the mean latency is 1 ÷ ops_per_s.
var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "ops/s", better: "higher", bound: 0.25},
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25},
	{name: "dev_bytes_per_user_byte", unit: "ratio", better: "lower", bound: 0.05},
	{name: "alloc_bytes_per_op", unit: "B", better: "lower", bound: 0.10},
	{name: "heap_live_mb", unit: "MiB", better: "lower", bound: 0.15},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer lists the metrics of single layers, taken by a traced run
// from outside the engine: decorators around devices, disks and the
// network backend, call-site timers, Stats() deltas and the engine's
// shipped Tracer histograms.
var perLayer = []metricDef{
	// disk: tracedDev around every device.
	{name: "disk.writes_per_op", unit: "count", better: "lower", moves: "dev_bytes_per_user_byte on every workload"},
	{name: "disk.write_bytes_per_op", unit: "B", better: "lower", moves: "dev_bytes_per_user_byte on every workload"},
	{name: "disk.reads_per_op", unit: "count", better: "lower", moves: "ops_per_s on read_mostly and recovery"},
	{name: "disk.read_bytes_per_op", unit: "B", better: "lower", moves: "ops_per_s on read_mostly and recovery"},
	{name: "disk.syncs_per_op", unit: "count", better: "lower", moves: "ops_per_s on durable_commit and shard_2pc"},
	{name: "disk.busy_us_per_op", unit: "us", better: "lower", moves: "ops_per_s on durable_commit"},
	{name: "disk.sync_us_p50", unit: "us", better: "lower", moves: "ops_per_s on durable_commit"},
	// core: call-site timers around the LD calls (mean per call).
	{name: "core.begin_us", unit: "us", better: "lower", moves: "ops_per_s and cpu_us_per_op on aru_commit"},
	{name: "core.write_us", unit: "us", better: "lower", moves: "ops_per_s and cpu_us_per_op on aru_commit"},
	{name: "core.newblock_us", unit: "us", better: "lower", moves: "ops_per_s and cpu_us_per_op on aru_commit"},
	{name: "core.delete_us", unit: "us", better: "lower", moves: "ops_per_s and cpu_us_per_op on aru_commit"},
	{name: "core.end_us", unit: "us", better: "lower", moves: "ops_per_s and cpu_us_per_op on aru_commit"},
	{name: "core.commit_durable_us", unit: "us", better: "lower", moves: "ops_per_s on durable_commit"},
	{name: "core.read_us", unit: "us", better: "lower", moves: "ops_per_s on read_mostly"},
	{name: "core.flush_us", unit: "us", better: "lower", moves: "ops_per_s on aru_commit"},
	{name: "core.self_us_per_op", unit: "us", better: "lower", moves: "ops_per_s on aru_commit and churn"},
	// core: Stats() deltas.
	{name: "core.segments_per_kop", unit: "count", better: "lower", moves: "dev_bytes_per_user_byte on durable_commit and shard_2pc"},
	{name: "core.seg_fill_frac", unit: "ratio", better: "higher", moves: "dev_bytes_per_user_byte on durable_commit and shard_2pc"},
	{name: "core.entries_logged_per_op", unit: "count", better: "lower", moves: "cpu_us_per_op on aru_commit"},
	{name: "core.coalesced_writes_per_op", unit: "count", better: "higher", moves: "dev_bytes_per_user_byte on aru_commit"},
	{name: "core.epochs_per_op", unit: "count", better: "lower", moves: "cpu_us_per_op on aru_commit and read_mostly"},
	{name: "core.merge_fallbacks", unit: "count", better: "lower", moves: "cpu_us_per_op on aru_commit"},
	{name: "core.checkpoints_per_kop", unit: "count", better: "lower", moves: "ops_per_s on aru_commit"},
	// core: the engine's Tracer histograms.
	{name: "core.segment_flush_us", unit: "us", better: "lower", moves: "ops_per_s on aru_commit"},
	{name: "core.checkpoint_us", unit: "us", better: "lower", moves: "ops_per_s on aru_commit"},
	{name: "core.checkpoint_delta_us", unit: "us", better: "lower", moves: "ops_per_s on aru_commit"},
	// core: cleaner.
	{name: "core.cleaner_pass_us", unit: "us", better: "lower", moves: "ops_per_s on churn"},
	{name: "core.cleaner_busy_frac", unit: "ratio", better: "lower", moves: "ops_per_s on churn"},
	{name: "core.segments_cleaned_per_kop", unit: "count", better: "lower", moves: "dev_bytes_per_user_byte on churn"},
	{name: "core.relocated_per_user_block", unit: "ratio", better: "lower", moves: "dev_bytes_per_user_byte and ops_per_s on churn"},
	{name: "core.stall_ops_frac", unit: "ratio", better: "lower", moves: "ops_per_s on churn"},
	// core: group commit.
	{name: "core.commits_per_batch", unit: "count", better: "higher", moves: "ops_per_s on durable_commit"},
	{name: "core.group_commit_wait_us", unit: "us", better: "lower", moves: "ops_per_s on durable_commit"},
	{name: "core.commit_to_durable_us", unit: "us", better: "lower", moves: "ops_per_s on durable_commit"},
	// core: block cache.
	{name: "core.cache_hit_ratio", unit: "ratio", better: "higher", moves: "ops_per_s on read_mostly"},
	{name: "core.cache_misses_per_op", unit: "count", better: "lower", moves: "ops_per_s on read_mostly"},
	// core: recovery.
	{name: "core.open_us_p50", unit: "us", better: "lower", moves: "ops_per_s on recovery"},
	{name: "core.open_us_p90", unit: "us", better: "lower", moves: "ops_per_s on recovery"},
	{name: "core.recover_us_per_entry", unit: "us", better: "lower", moves: "ops_per_s on recovery"},
	{name: "core.recover_scan_us", unit: "us", better: "lower", moves: "ops_per_s on recovery"},
	{name: "core.recover_segments_replayed", unit: "count", better: "lower", moves: "ops_per_s on recovery"},
	{name: "core.recover_entries_replayed", unit: "count", better: "lower", moves: "ops_per_s on recovery"},
	{name: "core.recover_chain_depth", unit: "count", better: "lower", moves: "ops_per_s on recovery"},
	{name: "core.recover_delta_pages", unit: "count", better: "lower", moves: "ops_per_s on recovery"},
	// seg: the codec timed on its own.
	{name: "seg.decode_us_per_segment", unit: "us", better: "lower", moves: "ops_per_s on recovery"},
	{name: "seg.seal_us_per_segment", unit: "us", better: "lower", moves: "ops_per_s on aru_commit"},
	// ldnet: client call sites, a backend decorator, a counting listener.
	{name: "ldnet.rpcs_per_op", unit: "count", better: "lower", moves: "ops_per_s on net_aru"},
	{name: "ldnet.ping_us", unit: "us", better: "lower", moves: "ops_per_s on net_aru"},
	{name: "ldnet.begin_rpc_us", unit: "us", better: "lower", moves: "ops_per_s on net_aru"},
	{name: "ldnet.write_rpc_us", unit: "us", better: "lower", moves: "ops_per_s on net_aru"},
	{name: "ldnet.end_rpc_us", unit: "us", better: "lower", moves: "ops_per_s on net_aru"},
	{name: "ldnet.read_rpc_us", unit: "us", better: "lower", moves: "ops_per_s on net_aru"},
	{name: "ldnet.backend_us_per_op", unit: "us", better: "lower", moves: "ops_per_s on net_aru"},
	{name: "ldnet.self_us_per_op", unit: "us", better: "lower", moves: "ops_per_s and cpu_us_per_op on net_aru"},
	{name: "ldnet.wire_bytes_per_op", unit: "B", better: "lower", moves: "cpu_us_per_op on net_aru"},
	{name: "ldnet.conn_writes_per_op", unit: "count", better: "lower", moves: "cpu_us_per_op on net_aru"},
	{name: "ldnet.conn_reads_per_op", unit: "count", better: "lower", moves: "cpu_us_per_op on net_aru"},
	{name: "ldnet.failed_rpcs", unit: "count", better: "lower", moves: "ops_per_s on net_aru"},
	// shard: call sites split by unit kind, per-shard and coordinator devices.
	{name: "shard.fast_commits_frac", unit: "ratio", better: "higher", moves: "ops_per_s on shard_2pc"},
	{name: "shard.end_fast_us", unit: "us", better: "lower", moves: "ops_per_s on shard_2pc"},
	{name: "shard.end_cross_us", unit: "us", better: "lower", moves: "ops_per_s on shard_2pc"},
	{name: "shard.dev_syncs_per_cross", unit: "count", better: "lower", moves: "ops_per_s on shard_2pc"},
	{name: "shard.dev_write_bytes_per_cross", unit: "B", better: "lower", moves: "dev_bytes_per_user_byte on shard_2pc"},
	{name: "shard.coord_syncs_per_cross", unit: "count", better: "lower", moves: "ops_per_s on shard_2pc"},
	{name: "shard.coord_write_bytes_per_cross", unit: "B", better: "lower", moves: "dev_bytes_per_user_byte on shard_2pc"},
	{name: "shard.prepare_us", unit: "us", better: "lower", moves: "ops_per_s on shard_2pc"},
	{name: "shard.coord_commit_us", unit: "us", better: "lower", moves: "ops_per_s on shard_2pc"},
	{name: "shard.imbalance", unit: "ratio", better: "lower", moves: "ops_per_s on shard_2pc"},
	{name: "shard.self_us_per_op", unit: "us", better: "lower", moves: "ops_per_s and cpu_us_per_op on shard_2pc"},
	// minixfs: call-site timers per phase.
	{name: "minixfs.create_us", unit: "us", better: "lower", moves: "ops_per_s on fs_smallfile"},
	{name: "minixfs.write_us", unit: "us", better: "lower", moves: "ops_per_s on fs_smallfile"},
	{name: "minixfs.open_read_us", unit: "us", better: "lower", moves: "ops_per_s on fs_smallfile"},
	{name: "minixfs.remove_us", unit: "us", better: "lower", moves: "ops_per_s on fs_smallfile"},
	{name: "minixfs.sync_us", unit: "us", better: "lower", moves: "ops_per_s on fs_smallfile"},
	{name: "minixfs.ld_ops_per_file", unit: "count", better: "lower", moves: "cpu_us_per_op on fs_smallfile"},
	{name: "minixfs.arus_per_file", unit: "count", better: "lower", moves: "cpu_us_per_op on fs_smallfile"},
	{name: "minixfs.pred_search_steps_per_op", unit: "count", better: "lower", moves: "cpu_us_per_op on fs_smallfile"},
	{name: "minixfs.self_us_per_op", unit: "us", better: "lower", moves: "ops_per_s and cpu_us_per_op on fs_smallfile"},
	// The runner's own numbers qualify the others; they should move nothing.
	{name: "obs.overhead_frac", unit: "ratio", better: "lower", moves: "none: how far the traced run is from the untraced one, on every workload"},
	{name: "trace.spans", unit: "count", better: "higher", moves: "none: spans kept, on every workload"},
	{name: "trace.dropped", unit: "count", better: "lower", moves: "none: spans lost to a full buffer, on every workload"},
	{name: "client.gen_us_per_op", unit: "us", better: "lower", moves: "none: the generator's own share of ops_per_s, on every workload"},
	{name: "client.op_p50_us", unit: "us", better: "lower", moves: "none: median op latency in reference time, on every workload; its spread between runs of the same code is too wide to gate"},
	{name: "client.op_p99_us", unit: "us", better: "lower", moves: "none: diagnostic tail on every workload; too few samples beyond it to gate"},
	{name: "client.op_p999_us", unit: "us", better: "lower", moves: "none: diagnostic tail, structural on aru_commit (segment seals) and churn (cleaner passes)"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the metrics of one run by name. A metric that is
// undefined on a workload is simply absent.
type metricSet map[string]metric

var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, d := range endToEnd {
		m[d.name] = d.unit
	}
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()

// set stores a value under a catalogued name.
func (s metricSet) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the catalogue")
	}
	s[name] = metric{Value: v, Unit: unit}
}

// setIf stores v when ok; the metric stays absent otherwise.
func (s metricSet) setIf(name string, v float64, ok bool) {
	if ok {
		s.set(name, v)
	}
}
