// Command aru-crashcheck systematically explores the crash states of
// seeded logical-disk workloads and checks every one against the
// paper's recovery guarantees (see internal/crashenum). It exits
// non-zero if any crash state violates the oracle — printing a
// replayable artifact for each violation — or if fewer distinct
// states than -min-states were explored.
//
// With -shards N (or -workloads shard) it runs the sharded cross-shard
// 2PC workload instead: N shard engines plus a coordinator log on one
// global clock, crashed together at every interesting instant, with
// the oracle checking cross-shard all-or-nothing atomicity through
// full multi-shard recovery.
//
// With -recover-crash it additionally crashes recovery itself: for a
// sampled subset of clean crash states, the first recovery's device
// writes are journaled and sub-enumerated, and every double-crash
// image must re-recover clean. The net workload drives the engine
// through an ldnet client/server pair, with durability judged by the
// acks the client received before the crash. The wrap workload
// overwrites a pool of simple blocks on a log short enough to wrap many
// times, with checkpoints as the only durability points. The maint
// workload keeps units open while explicit and automatic checkpoints and
// cleaner passes run between their operations.
//
// Usage:
//
//	aru-crashcheck [-seed N] [-seeds N] [-states N] [-reorder-window N]
//	               [-workloads mixed,fs,shard,net,wrap,maint] [-fs] [-shards N]
//	               [-min-states N] [-conc N] [-recover-crash]
//	               [-inject none|nosync|untagged-replay|ack-early|torn-delta|commit-before-prepare-sync]
//	               [-replay E<e>K<k>[D...][T...][+RE..K..] | -replay G<g>/E..K../...] [-v]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"aru/internal/crashenum"
)

// config is a parsed command line.
type config struct {
	o         crashenum.Options
	replay    string // crash state descriptor to replay instead of enumerating
	minStates int
}

// parseArgs parses the command line (without the program name). Usage
// errors are reported on stderr and returned.
func parseArgs(args []string, stderr io.Writer) (config, error) {
	var injections []string
	for _, inj := range crashenum.Injections {
		injections = append(injections, fmt.Sprintf("%s (%s)", inj.Name, inj.Needs))
	}
	var c config
	fs := flag.NewFlagSet("aru-crashcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Int64Var(&c.o.Seed, "seed", 1, "first workload seed")
	fs.IntVar(&c.o.Seeds, "seeds", 24, "number of consecutive seeds to run")
	fs.IntVar(&c.o.MaxStates, "states", 0, "max distinct crash states to explore (0 = unlimited)")
	fs.IntVar(&c.o.ReorderWindow, "reorder-window", 3, "reordering window within the crash epoch")
	workloads := fs.String("workloads", "mixed,fs", "comma-separated workloads: mixed, fs, shard, net, wrap, maint")
	fsOnly := fs.Bool("fs", false, "shorthand for -workloads fs")
	fs.IntVar(&c.o.Shards, "shards", 0, "shard count for the sharded 2PC workload; >0 implies -workloads shard")
	fs.IntVar(&c.minStates, "min-states", 0, "fail unless at least this many distinct states were explored")
	fs.IntVar(&c.o.MixedParams.ConcFlushers, "conc", 0, "mixed-workload concurrent committers per group-commit phase (0 = sequential scripts)")
	fs.StringVar(&c.o.Inject, "inject", "none", "deliberate bug to validate the oracle — the run must fail — with the workloads whose crash states expose it: none, "+strings.Join(injections, ", "))
	fs.BoolVar(&c.o.RecoverCrash, "recover-crash", false, "also crash recovery itself on a sampled subset of clean states and re-check")
	fs.IntVar(&c.o.RecoverSample, "recover-sample", 0, "reciprocal sampling rate for -recover-crash (default 16)")
	fs.StringVar(&c.replay, "replay", "", "replay one crash state descriptor (requires a single workload and seed); outer+RE..K.. replays a recovery re-crash")
	verbose := fs.Bool("v", false, "log per-run progress")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if *fsOnly {
		*workloads = "fs"
	}
	if c.o.Shards > 0 {
		*workloads = "shard"
	}
	for _, w := range strings.Split(*workloads, ",") {
		if w = strings.TrimSpace(w); w != "" {
			c.o.Workloads = append(c.o.Workloads, w)
		}
	}
	if *verbose {
		c.o.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	var err error
	if c.replay != "" && len(c.o.Workloads) != 1 {
		// A descriptor indexes one workload's journal; every printed
		// artifact names its workload.
		err = fmt.Errorf("-replay needs exactly one workload, -workloads names %d (%s)",
			len(c.o.Workloads), strings.Join(c.o.Workloads, ","))
		fmt.Fprintln(stderr, "aru-crashcheck:", err)
	}
	return c, err
}

// exitOnErr reports an execution error and exits 2.
func exitOnErr(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "aru-crashcheck:", err)
		os.Exit(2)
	}
}

func main() {
	c, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	} else if err != nil {
		os.Exit(2)
	}
	if c.replay != "" {
		kind := c.o.Workloads[0]
		viols, err := crashenum.Replay(kind, c.o.Seed, c.o, c.replay)
		exitOnErr(err)
		if len(viols) == 0 {
			fmt.Printf("replay %s seed=%d %s: clean\n", kind, c.o.Seed, c.replay)
			return
		}
		fmt.Printf("replay %s seed=%d %s: %d violations\n", kind, c.o.Seed, c.replay, len(viols))
		for _, v := range viols {
			fmt.Println("  ", v)
		}
		os.Exit(1)
	}

	rpt, err := crashenum.Run(c.o)
	exitOnErr(err)
	fmt.Printf("explored %d distinct crash states across %d runs: %d violations\n",
		rpt.States, rpt.Runs, len(rpt.Violations))
	for _, v := range rpt.Violations {
		fmt.Printf("VIOLATION %s seed=%d state=%s shrunk=%s\n", v.Workload, v.Seed, v.State, v.Shrunk)
		for _, d := range v.Desc {
			fmt.Println("  ", d)
		}
		fmt.Printf("  replay with: aru-crashcheck %s\n", v.Artifact)
	}
	if len(rpt.Violations) > 0 {
		os.Exit(1)
	}
	if c.minStates > 0 && rpt.States < c.minStates {
		fmt.Fprintf(os.Stderr, "aru-crashcheck: explored %d states, below the floor of %d\n", rpt.States, c.minStates)
		os.Exit(1)
	}
}
