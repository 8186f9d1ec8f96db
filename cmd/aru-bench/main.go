// Command aru-bench regenerates the tables and figures of the paper's
// evaluation on the simulated testbed.
//
// Usage:
//
//	aru-bench [-exp all|table1|fig5|fig6|arulat] [-scale N] [-verify] [-csv]
//	aru-bench -connect HOST:PORT [-net-ops N] [-trace-out trace.json]
//
// -scale N divides the workload sizes by N for quick runs; the paper's
// full scale is -scale 1 (the default). Every number printed is modeled
// time — simulated HP C3010 disk plus the SPARC-5/70 cost model — and
// is a function of the workload alone; wall-clock questions belong to
// benchmark/ (bash benchmark/run.sh).
//
// -connect skips the simulated experiments and instead drives a remote
// logical disk served by aru-serve with the mixed-ARU workload
// (multi-block units, aborts, shadow readback, committed-state
// verification) — the same semantics checks as the in-process runs,
// but across the wire. -net-ops sets the number of ARUs.
//
// -trace-out (with -connect) writes the client's RPC span timeline as
// Chrome trace JSON (open it in ui.perfetto.dev); the spans' trace
// context travels to the server, whose own /debug/trace then shows the
// server half of each chain.
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
)

// experiments are the names -exp accepts.
var experiments = []string{"all", "table1", "fig5", "fig6", "arulat"}

// usageProblem returns what is wrong with a parsed command line, or ""
// if nothing is. main exits 2 on any.
func usageProblem(exp, connect, traceOut string, positional []string) string {
	switch {
	case len(positional) > 0:
		return fmt.Sprintf("unexpected argument %q", positional[0])
	case !slices.Contains(experiments, exp):
		return fmt.Sprintf("unknown experiment %q (valid: %s)", exp, strings.Join(experiments, ", "))
	case traceOut != "" && connect == "":
		return "-trace-out needs -connect: simulated runs are not traced"
	}
	return ""
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(experiments, ", "))
	scale := flag.Int("scale", 1, "divide workload sizes by N (1 = paper scale)")
	verify := flag.Bool("verify", false, "verify payloads during read phases")
	csv := flag.Bool("csv", false, "emit fig5/fig6 as CSV instead of tables")
	connect := flag.String("connect", "", "drive a remote aru-serve instance at this address instead of the simulated testbed")
	netOps := flag.Int("net-ops", 1000, "ARUs to run against the remote disk (-connect mode)")
	traceOut := flag.String("trace-out", "", "write the client's span timeline as Chrome trace JSON to this file (-connect mode)")
	flag.Parse()
	if msg := usageProblem(*exp, *connect, *traceOut, flag.Args()); msg != "" {
		fmt.Fprintln(os.Stderr, "aru-bench:", msg)
		os.Exit(2)
	}

	if *connect != "" {
		runRemote(*connect, *netOps, *traceOut)
		return
	}

	o := harness.Options{Scale: *scale, Verify: *verify}
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
		return nil
	})
	run("arulat", func() error {
		res, err := harness.RunARULatency(harness.Table1()[1], 500000, o)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatARULat(res))
		return nil
	})
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
