// Command aru-bench regenerates the tables and figures of the paper's
// evaluation on the simulated testbed.
//
// Usage:
//
//	aru-bench [-exp all|table1|fig5|fig6|arulat|concurrent|groupcommit|shard|recovery|readscale]
//	          [-scale N] [-verify] [-csv] [-json out.json]
//	          [-metrics-addr :6060] [-trace-out trace.json]
//	aru-bench -connect HOST:PORT [-net-ops N] [-trace-out trace.json]
//
// -scale N divides the workload sizes by N for quick runs; the paper's
// full scale is -scale 1 (the default). -json writes a machine-readable
// report ("-" = stdout) including latency-histogram percentiles.
// -metrics-addr serves /metrics (Prometheus text), /debug/vars and
// /debug/pprof while the experiments run.
//
// -exp groupcommit measures the group-commit broker against the
// same flushes serialized by the driver, with concurrent committers on a device whose
// sync costs -gc-syncdelay of wall time. -gc-min-speedup and
// -gc-min-amort turn the run into a gate: aru-bench exits non-zero
// unless the -gc-committers row meets both floors.
//
// -exp shard sweeps the sharded disk over shard counts up to -shards
// with the same total committer population pinned round-robin, each
// committer durably committing shard-local units with per-shard
// flushes, and compares the single-shard fast path against the bare
// engine. -shard-min-scale and -shard-max-overhead turn the run into a
// gate. -workload skew swaps in the Zipf hot-key workload (keys route
// to shards through their lists) and reports the per-shard ops/s
// split; under -exp all both workloads run.
//
// -exp recovery measures mount time against the size of the log tail
// beyond the newest checkpoint, from a full-log scan down to a few
// percent, with the parallel summary scan and a single worker.
// -recovery-max-ratio turns the sweep into an O(delta) gate: the
// smallest-tail mount must cost at most that fraction of the full
// scan.
//
// -exp readscale measures committed-read throughput of the MVCC read
// path (DESIGN.md §16) at -readscale-readers reader counts against a
// continuously committing writer, in wall-clock time on an in-memory
// device. The sweep runs under a full-rate runtime contention profile
// and always gates: any blocking event attributed to a read-path
// frame (a reader waiting on a lock) exits non-zero.
//
// -connect skips the simulated experiments and instead drives a remote
// logical disk served by aru-serve with the mixed-ARU workload
// (multi-block units, aborts, shadow readback, committed-state
// verification) — the same semantics checks as the in-process runs,
// but across the wire. -net-ops sets the number of ARUs.
//
// -trace-out writes the run's span timeline as Chrome trace JSON
// (open it in ui.perfetto.dev). In -connect mode the client's RPC
// spans are recorded and their trace context travels to the server,
// whose own /debug/trace then shows the server half of each chain.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"aru"
	"aru/internal/harness"
	"aru/internal/obs"
	"aru/internal/workload"
)

// experiments are the names -exp accepts.
var experiments = []string{"all", "table1", "fig5", "fig6", "arulat", "concurrent", "groupcommit", "shard", "recovery", "readscale"}

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(experiments, ", "))
	scale := flag.Int("scale", 1, "divide workload sizes by N (1 = paper scale)")
	verify := flag.Bool("verify", false, "verify payloads during read phases")
	csv := flag.Bool("csv", false, "emit fig5/fig6 as CSV instead of tables")
	jsonOut := flag.String("json", "", "write a machine-readable report to this file (\"-\" = stdout)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while running")
	gcCommitters := flag.Int("gc-committers", 8, "groupcommit: concurrent committers in the gated configuration")
	gcCommits := flag.Int("gc-commits", 25, "groupcommit: durable commits per committer")
	gcSyncDelay := flag.Duration("gc-syncdelay", 2*time.Millisecond, "groupcommit: simulated device sync latency")
	gcMinSpeedup := flag.Float64("gc-min-speedup", 0, "groupcommit: fail unless speedup over serial sync reaches this (0 = report only)")
	gcMinAmort := flag.Float64("gc-min-amort", 0, "groupcommit: fail unless sync amortization reaches this (0 = report only)")
	shards := flag.Int("shards", 4, "shard: largest shard count of the scaling sweep")
	shardCommitters := flag.Int("shard-committers", 16, "shard: total concurrent committers, pinned round-robin to shards")
	shardCommits := flag.Int("shard-commits", 24, "shard: durable commits per committer")
	shardSyncDelay := flag.Duration("shard-syncdelay", 2*time.Millisecond, "shard: simulated device sync latency")
	shardMinScale := flag.Float64("shard-min-scale", 0, "shard: fail unless aggregate throughput at -shards over 1 shard reaches this (0 = report only)")
	shardMaxOverhead := flag.Float64("shard-max-overhead", 0, "shard: fail if the single-shard fast path is slower than the bare engine by more than this fraction (0 = report only)")
	workloadName := flag.String("workload", "uniform", "shard: committer workload — uniform (pinned shard-local units) or skew (Zipf hot keys)")
	recMaxRatio := flag.Float64("recovery-max-ratio", 0, "recovery: fail unless the smallest-delta mount takes at most this fraction of the full-scan baseline (0 = report only)")
	rsReaders := flag.Int("readscale-readers", 8, "readscale: largest reader count of the sweep")
	rsOps := flag.Int("readscale-ops", 200000, "readscale: committed-state reads per reader")
	connect := flag.String("connect", "", "drive a remote aru-serve instance at this address instead of the simulated testbed")
	netOps := flag.Int("net-ops", 1000, "ARUs to run against the remote disk (-connect mode)")
	traceOut := flag.String("trace-out", "", "write the run's span timeline as Chrome trace JSON to this file")
	flag.Parse()
	if !slices.Contains(experiments, *exp) {
		fmt.Fprintf(os.Stderr, "aru-bench: unknown experiment %q (valid: %s)\n", *exp, strings.Join(experiments, ", "))
		os.Exit(2)
	}

	if *connect != "" {
		runRemote(*connect, *netOps, *traceOut)
		return
	}

	tracer := obs.New(obs.Config{})
	o := harness.Options{Scale: *scale, Verify: *verify, Tracer: tracer}
	if *metricsAddr != "" {
		_, addr, err := obs.ServeMetrics(*metricsAddr, obs.HandlerOptions{Tracer: tracer})
		if err != nil {
			fmt.Fprintf(os.Stderr, "aru-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "aru-bench: metrics on http://%s/metrics\n", addr)
	}

	report := harness.Report{Scale: *scale}
	start := time.Now()
	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "aru-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("table1", func() error {
		fmt.Println(harness.FormatTable1())
		return nil
	})
	run("fig5", func() error {
		res, err := harness.RunFig5(o)
		if err != nil {
			return err
		}
		if *csv {
			fmt.Print(harness.CSVFig5(res))
		} else {
			fmt.Println(harness.FormatFig5(res))
		}
		report.AddFig5(res)
		return nil
	})
	run("fig6", func() error {
		res, err := harness.RunFig6(o)
		if err != nil {
			return err
		}
		if *csv {
			fmt.Print(harness.CSVFig6(res))
		} else {
			fmt.Println(harness.FormatFig6(res))
		}
		report.AddFig6(res)
		return nil
	})
	run("arulat", func() error {
		res, err := harness.RunARULatency(harness.Table1()[1], 500000, o)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatARULat(res))
		report.AddARULat(res)
		return nil
	})
	run("concurrent", func() error {
		res, err := harness.RunConcurrentClients(harness.Table1()[1],
			[]int{1, 2, 4, 8, 16}, 20000, o)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatConcurrent(res))
		report.AddConcurrent(res)
		return nil
	})
	run("groupcommit", func() error {
		commits := *gcCommits / *scale
		if commits < 5 {
			commits = 5
		}
		counts := []int{}
		for _, n := range []int{1, 2, 4, *gcCommitters} {
			if n < *gcCommitters && n > 0 {
				counts = append(counts, n)
			}
		}
		counts = append(counts, *gcCommitters)
		res, err := harness.RunGroupCommitSweep(counts, commits, *gcSyncDelay)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatGroupCommit(res))
		gated := res[len(res)-1]
		if *gcMinSpeedup > 0 && gated.Speedup() < *gcMinSpeedup {
			return fmt.Errorf("speedup %.2fx with %d committers, below the floor of %.2fx",
				gated.Speedup(), gated.Committers, *gcMinSpeedup)
		}
		if *gcMinAmort > 0 && gated.Amortization() < *gcMinAmort {
			return fmt.Errorf("sync amortization %.2fx with %d committers, below the floor of %.2fx",
				gated.Amortization(), gated.Committers, *gcMinAmort)
		}
		return nil
	})

	run("shard", func() error {
		commits := *shardCommits / *scale
		if commits < 4 {
			commits = 4
		}
		counts := []int{}
		for _, n := range []int{1, 2, 4} {
			if n < *shards {
				counts = append(counts, n)
			}
		}
		counts = append(counts, *shards)
		uniform := *workloadName != "skew" || *exp == "all"
		skew := *workloadName == "skew" || *exp == "all"
		var res []harness.ShardScaleResult
		var fp harness.ShardFastPathResult
		if uniform {
			var err error
			res, err = harness.RunShardScaleSweep(counts, *shardCommitters, commits, *shardSyncDelay)
			if err != nil {
				return err
			}
			fp, err = harness.RunShardFastPath(*shardCommitters, commits, *shardSyncDelay)
			if err != nil {
				return err
			}
			fmt.Println(harness.FormatShardScale(res, fp))
			report.AddShardScale(res, fp)
		}
		if skew {
			z := workload.DefaultSkew().Scale(*scale)
			for _, placement := range []harness.SkewPlacement{harness.PlaceRR, harness.PlaceRange} {
				sk, err := harness.RunShardSkew(*shards, *shardCommitters, z, placement, *shardSyncDelay)
				if err != nil {
					return err
				}
				fmt.Println(harness.FormatShardSkew(sk))
				report.AddShardSkew(sk)
			}
		}
		if uniform {
			gated := res[len(res)-1]
			speedup := 0.0
			if base := res[0].SerialPerSec(); base > 0 {
				speedup = gated.SerialPerSec() / base
			}
			if *shardMinScale > 0 && speedup < *shardMinScale {
				return fmt.Errorf("serial-path aggregate throughput scaled %.2fx at %d shards, below the floor of %.2fx",
					speedup, gated.Shards, *shardMinScale)
			}
			if *shardMaxOverhead > 0 && fp.Overhead() > *shardMaxOverhead {
				return fmt.Errorf("single-shard fast path %.1f%% slower than the bare engine, above the ceiling of %.1f%%",
					fp.Overhead()*100, *shardMaxOverhead*100)
			}
		}
		return nil
	})

	run("readscale", func() error {
		counts := []int{}
		for _, n := range []int{1, 2, 4} {
			if n < *rsReaders {
				counts = append(counts, n)
			}
		}
		counts = append(counts, *rsReaders)
		res, err := harness.RunReadScale(counts, *rsOps, o)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatReadScale(res))
		report.AddReadScale(res)
		return harness.ReadScaleGate(res)
	})

	run("recovery", func() error {
		res, err := harness.RunRecoverySweep(o)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatRecovery(res))
		report.AddRecovery(res)
		if *recMaxRatio > 0 {
			return harness.RecoveryGate(res, *recMaxRatio)
		}
		return nil
	})

	if lat := harness.FormatLatencies(tracer.Histograms()); lat != "" && !*csv {
		fmt.Println(lat)
	}
	if *jsonOut != "" {
		report.Histograms = harness.SummarizeHistograms(tracer.Histograms())
		if err := report.WriteFile(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "aru-bench: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
	}
	writeTrace(*traceOut, tracer)
	fmt.Printf("(wall time %v, scale 1/%d)\n", time.Since(start).Round(time.Millisecond), *scale)
}

// writeTrace dumps the tracer's span timeline as Chrome trace JSON.
func writeTrace(path string, tracer *obs.Tracer) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aru-bench: trace out: %v\n", err)
		os.Exit(1)
	}
	if err := obs.WriteChromeTrace(f, tracer.Spans()); err == nil {
		err = f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "aru-bench: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("span timeline written to %s (open in ui.perfetto.dev)\n", path)
}

// runRemote drives an aru-serve instance with the mixed-ARU workload
// and prints its throughput plus the server's counter deltas. The
// client records rpc spans locally and propagates their context over
// the wire (the server's /debug/trace shows the other half).
func runRemote(addr string, ops int, traceOut string) {
	tracer := obs.New(obs.Config{})
	cl, err := aru.Dial(addr, aru.DialConfig{Tracer: tracer})
	if err != nil {
		fmt.Fprintf(os.Stderr, "aru-bench: connect %s: %v\n", addr, err)
		os.Exit(1)
	}
	defer cl.Close()
	before, err := cl.StatsRPC()
	if err != nil {
		fmt.Fprintf(os.Stderr, "aru-bench: remote stats: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("remote disk at %s (block size %d B)\n", addr, cl.BlockSize())
	res, err := harness.RunNetWorkload(cl, harness.NetOptions{Ops: ops, Tracer: tracer})
	if err != nil {
		fmt.Fprintf(os.Stderr, "aru-bench: remote workload: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(harness.FormatNet(res))
	if after, err := cl.StatsRPC(); err == nil {
		fmt.Printf("server deltas: reads %d, writes %d, ARUs committed %d, aborted %d, segments written %d\n",
			after.Reads-before.Reads, after.Writes-before.Writes,
			after.ARUsCommitted-before.ARUsCommitted,
			after.ARUsAborted-before.ARUsAborted,
			after.SegmentsWritten-before.SegmentsWritten)
	}
	writeTrace(traceOut, tracer)
}
