// Command benchmark is the repository's wall-clock, layer-attributed
// benchmark: eight named workloads, end-to-end metrics from untraced
// runs, per-layer metrics from traced runs whose instruments all sit
// outside the engine. See README.md in this directory.
//
//	go run ./benchmark -seed 1 -out set.json          # every workload, untraced then traced
//	go run ./benchmark -compare base.json new.json    # apply the bounds
//	go run ./benchmark --workload churn --seed 7 --seconds 10 --trace 0   # one run, as the driver makes it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// setupRepeats is how many times a workload is set up for setup_s.
const setupRepeats = 7

// hostFacts records where a set was measured.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// setFile is the -out document: one set of runs.
type setFile struct {
	Schema    int          `json:"schema"`
	Host      hostFacts    `json:"host"`
	Seed      int64        `json:"seed"`
	Scale     float64      `json:"scale"`
	Workloads []string     `json:"workloads"`
	Untraced  []*runResult `json:"untraced"`
	Traced    []*runResult `json:"traced"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	// Load comes from one process with at most two client goroutines;
	// pinning GOMAXPROCS keeps a many-core host comparable to the
	// reference sandbox.
	runtime.GOMAXPROCS(2)

	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 1, "workload generator seed")
		out      = fs.String("out", "", "write the set (host facts, op counts, every metric, per-slice throughputs) to this JSON file")
		names    = fs.String("workloads", "", "comma-separated workloads to run (default: all)")
		scale    = fs.Float64("scale", 1, "multiply every op count by this factor (recorded in the output)")
		traceOut = fs.String("trace-out", "", "write each traced run's spans to <prefix><workload>.trace.json (Chrome trace JSON, loads in Perfetto)")
		compare  = fs.Bool("compare", false, "compare two set files (or comma-separated lists of them): -compare base.json new.json")
		workload = fs.String("workload", "", "driver mode: run this one workload and print one JSON result line last")
		seconds  = fs.Float64("seconds", 0, "driver mode: length of the measured region in seconds (0 = the workload's op count)")
		trace    = fs.Int("trace", 0, "driver mode: 0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two arguments: base.json new.json")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *scale <= 0 || *seconds < 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "benchmark: -scale must be positive, -seconds not negative, -trace 0 or 1")
		return 2
	}
	if *workload != "" {
		def := findWorkload(*workload)
		if def == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		return runDriver(def, config{seed: *seed, scale: *scale, seconds: *seconds, traced: *trace == 1, setups: setupRepeats}, stdout, stderr)
	}

	var defs []*workloadDef
	if *names == "" {
		defs = workloads()
	} else {
		for _, n := range strings.Split(*names, ",") {
			def := findWorkload(strings.TrimSpace(n))
			if def == nil {
				fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", n)
				return 2
			}
			defs = append(defs, def)
		}
	}
	return runSet(defs, *seed, *scale, *out, *traceOut, stdout, stderr)
}

// runSet runs every workload once untraced and once traced, prints
// every metric by name with its unit and writes the set file.
func runSet(defs []*workloadDef, seed int64, scale float64, out, traceOut string, stdout, stderr io.Writer) int {
	set := &setFile{Schema: 1, Seed: seed, Scale: scale, Host: hostFacts{
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}}
	fmt.Fprintf(stdout, "host: nproc=%d %s GOMAXPROCS=%d   seed=%d scale=%g\n",
		set.Host.NProc, set.Host.GoVersion, set.Host.GoMaxProcs, seed, scale)
	code := 0
	for _, def := range defs {
		set.Workloads = append(set.Workloads, def.name)
		cfg := config{seed: seed, scale: scale, setups: setupRepeats}
		plain, err := runWorkload(def, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		cfg.traced, cfg.setups = true, 1
		if traceOut != "" {
			cfg.traceOut = traceOut + def.name + ".trace.json"
		}
		traced, err := runWorkload(def, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		traced.setOverhead(plain)
		set.Untraced = append(set.Untraced, plain)
		set.Traced = append(set.Traced, traced)
		printRun(stdout, def, plain, traced)
		for _, r := range []*runResult{plain, traced} {
			if r.Violations > 0 {
				fmt.Fprintf(stderr, "benchmark: %s: %d correctness violation(s): %s\n", def.name, r.Violations, r.FirstError)
				code = 1
			}
		}
		if missing := missingEndToEnd(plain); len(missing) > 0 {
			fmt.Fprintf(stderr, "benchmark: %s: metrics missing from the output: %s\n", def.name, strings.Join(missing, ", "))
			code = 1
		}
	}
	if len(defs) == len(workloads()) {
		// Over a full set every catalogued per-layer metric must have
		// been reported by at least one workload.
		seen := map[string]bool{}
		for _, r := range set.Traced {
			for name := range r.Metrics {
				seen[name] = true
			}
		}
		for _, d := range perLayer {
			if !seen[d.name] {
				fmt.Fprintf(stderr, "benchmark: metric missing from the output: %s\n", d.name)
				code = 1
			}
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: writing %s: %v\n", out, err)
			return 1
		}
	}
	return code
}

func missingEndToEnd(r *runResult) (missing []string) {
	for _, d := range endToEnd {
		if _, ok := r.Metrics[d.name]; !ok {
			missing = append(missing, d.name)
		}
	}
	return missing
}

// setOverhead records how far the traced run's throughput is from the
// untraced run's.
func (r *runResult) setOverhead(plain *runResult) {
	if plain.OpsPerS > 0 {
		r.Metrics.set("obs.overhead_frac", 1-r.OpsPerS/plain.OpsPerS)
	}
}

func printRun(w io.Writer, def *workloadDef, plain, traced *runResult) {
	fmt.Fprintf(w, "\n== %s ==  %s\n", def.name, def.why)
	fmt.Fprintf(w, "   ops: warm-up %d, measured %d, attempted %d, failed %d (failed_frac %.6f), samples %d, log written %.1fx, stream %s\n",
		plain.WarmupOps, plain.MeasuredOps, plain.Attempted, plain.Failed, plain.FailedFrac, plain.Samples, plain.LogWrittenX, plain.OpStreamHash)
	fmt.Fprintf(w, "   slices (ops/s, as measured):")
	for _, s := range plain.SliceOpsPerS {
		fmt.Fprintf(w, " %.0f", s)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "   %s\n", plain.asMeasured())
	for _, d := range endToEnd {
		if m, ok := plain.Metrics[d.name]; ok {
			fmt.Fprintf(w, "   %-32s %14.4f %-6s (%s is better, bound %g%%)\n", d.name, m.Value, m.Unit, d.better, d.bound*100)
		}
	}
	fmt.Fprintf(w, "   -- traced run: %d samples, one timed op in %d sampled --\n", traced.Samples, traced.SampleOneInN)
	for _, d := range perLayer {
		if m, ok := traced.Metrics[d.name]; ok {
			fmt.Fprintf(w, "   %-32s %14.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
	if len(traced.SelfUsPerOp) > 0 {
		var layers []string
		var sum float64
		for l, v := range traced.SelfUsPerOp {
			layers = append(layers, l)
			sum += v
		}
		sort.Strings(layers)
		fmt.Fprintf(w, "   self time per sampled op:")
		for _, l := range layers {
			fmt.Fprintf(w, " %s=%.2fus", l, traced.SelfUsPerOp[l])
		}
		if def.clients == 1 {
			fmt.Fprintf(w, "  sum=%.2fus = %.1f%% of the mean sampled op (%.2fus; mean of all ops %.2fus)", sum, 100*sum/traced.SampledOpUs, traced.SampledOpUs, traced.MeanOpUs)
		}
		fmt.Fprintln(w)
	}
}

// asMeasured says what the timings were before they were put in
// reference time, and how fast the host was.
func (r *runResult) asMeasured() string {
	return fmt.Sprintf("as measured: ops_per_s=%.6g op_p50_us=%.6g cpu_us_per_op=%.6g setup_s=%.6g; host speed factor %.4f; op_p50_us in reference time %.6g",
		median(r.SliceOpsPerS), median(r.SliceP50Us), median(r.SliceCPUUs), r.RawSetupS, median(r.SliceHostSpeed), r.OpP50Us)
}

// driverLine is the one JSON object the driver reads from the last line
// of standard output.
type driverLine struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// runDriver makes one run of one workload the way the driver asks for
// it and prints the result line. An untraced run reports every
// end-to-end metric; a traced run reports every per-layer metric, with
// 0 for one that is not defined on the workload (the driver wants every
// name on every run; the -out file of a set leaves them out instead).
func runDriver(def *workloadDef, cfg config, stdout, stderr io.Writer) int {
	var ref *runResult
	if cfg.traced {
		// A short untraced run first, so the traced run can say how far
		// from it tracing moved the throughput.
		refCfg := cfg
		refCfg.traced, refCfg.setups = false, 1
		refCfg.seconds, refCfg.scale = cfg.seconds/4, cfg.scale/4
		var err error
		if ref, err = runWorkload(def, refCfg); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		cfg.setups = 1
	}
	r, err := runWorkload(def, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	line := driverLine{Correct: r.Violations == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: metricSet{}}
	if cfg.traced {
		r.setOverhead(ref)
		for _, d := range perLayer {
			line.Metrics[d.name] = metric{Unit: d.unit}
			if m, ok := r.Metrics[d.name]; ok {
				line.Metrics[d.name] = m
			}
		}
	} else {
		if missing := missingEndToEnd(r); len(missing) > 0 {
			fmt.Fprintf(stderr, "benchmark: %s: metrics missing from the output: %s\n", def.name, strings.Join(missing, ", "))
			return 1
		}
		for _, d := range endToEnd {
			line.Metrics[d.name] = r.Metrics[d.name]
		}
	}
	if r.FirstError != "" {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d ops failed, first: %s\n", def.name, r.Failed, r.Attempted, r.FirstError)
	}
	fmt.Fprintf(stdout, "%s seed=%d traced=%v: %d ops measured in %.2fs, %d samples, log written %.1fx\n",
		def.name, cfg.seed, cfg.traced, r.MeasuredOps, r.WallS, r.Samples, r.LogWrittenX)
	fmt.Fprintf(stdout, "per slice, as measured:\nops/s: %.1f\np50 us: %.3f\ncpu us/op: %.3f\nhost speed: %.4f\n", r.SliceOpsPerS, r.SliceP50Us, r.SliceCPUUs, r.SliceHostSpeed)
	fmt.Fprintf(stdout, "%s\n", r.asMeasured())
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if r.Violations > 0 {
		return 1
	}
	return 0
}
