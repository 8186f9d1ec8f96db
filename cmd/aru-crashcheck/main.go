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
// times, with checkpoints as the only durability points.
//
// Usage:
//
//	aru-crashcheck [-seed N] [-seeds N] [-states N] [-reorder-window N]
//	               [-workloads mixed,fs,shard,net,wrap] [-fs] [-shards N]
//	               [-min-states N] [-conc N] [-recover-crash]
//	               [-inject none|nosync|untagged-replay|ack-early|torn-delta|commit-before-prepare-sync]
//	               [-replay E<e>K<k>[D...][T...][+RE..K..] | -replay G<g>/E..K../...] [-v]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"aru/internal/crashenum"
)

// exitOnErr reports a usage or execution error and exits 2.
func exitOnErr(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "aru-crashcheck:", err)
		os.Exit(2)
	}
}

func main() {
	var (
		seed      = flag.Int64("seed", 1, "first workload seed")
		seeds     = flag.Int("seeds", 24, "number of consecutive seeds to run")
		states    = flag.Int("states", 0, "max distinct crash states to explore (0 = unlimited)")
		window    = flag.Int("reorder-window", 3, "reordering window within the crash epoch")
		workloads = flag.String("workloads", "mixed,fs", "comma-separated workloads: mixed, fs, shard, net, wrap")
		fsOnly    = flag.Bool("fs", false, "shorthand for -workloads fs")
		shards    = flag.Int("shards", 0, "shard count for the sharded 2PC workload; >0 implies -workloads shard")
		minStates = flag.Int("min-states", 0, "fail unless at least this many distinct states were explored")
		conc      = flag.Int("conc", 0, "mixed-workload concurrent committers per group-commit phase (0 = sequential scripts)")
		inject    = flag.String("inject", "none", "deliberate engine bug to validate the oracle: none, nosync, untagged-replay, ack-early, torn-delta, commit-before-prepare-sync (shard workload)")
		recCrash  = flag.Bool("recover-crash", false, "also crash recovery itself on a sampled subset of clean states and re-check")
		recSample = flag.Int("recover-sample", 0, "reciprocal sampling rate for -recover-crash (default 16)")
		replay    = flag.String("replay", "", "replay one crash state descriptor (requires a single workload and seed); outer+RE..K.. replays a recovery re-crash")
		verbose   = flag.Bool("v", false, "log per-run progress")
	)
	flag.Parse()

	o := crashenum.Options{
		Seed:          *seed,
		Seeds:         *seeds,
		MaxStates:     *states,
		ReorderWindow: *window,
		Inject:        *inject,
		Shards:        *shards,
		RecoverCrash:  *recCrash,
		RecoverSample: *recSample,
	}
	o.MixedParams.ConcFlushers = *conc
	if *fsOnly {
		*workloads = "fs"
	}
	if *shards > 0 {
		*workloads = "shard"
	}
	// kinds collects the single-device workloads, for -replay.
	var kinds []string
	for _, w := range strings.Split(*workloads, ",") {
		w = strings.TrimSpace(w)
		switch w {
		case "mixed":
			o.Mixed = true
		case "fs":
			o.FS = true
		case "shard":
			o.Shard = true
			continue
		case "net":
			o.Net = true
		case "wrap":
			o.Wrap = true
		case "":
			continue
		default:
			fmt.Fprintf(os.Stderr, "aru-crashcheck: unknown workload %q\n", w)
			os.Exit(2)
		}
		kinds = append(kinds, w)
	}
	if *verbose {
		o.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	if *replay != "" {
		if o.Shard {
			ms, err := crashenum.ParseMultiState(*replay)
			exitOnErr(err)
			viols, err := crashenum.ReplayShard(*seed, o, ms)
			exitOnErr(err)
			if len(viols) == 0 {
				fmt.Printf("replay shard seed=%d %s: clean\n", *seed, ms)
				return
			}
			fmt.Printf("replay shard seed=%d %s: %d violations\n", *seed, ms, len(viols))
			for _, v := range viols {
				fmt.Println("  ", v)
			}
			os.Exit(1)
		}
		kind := "mixed"
		if len(kinds) == 1 {
			kind = kinds[0]
		}
		desc, subDesc, isRecover := strings.Cut(*replay, "+R")
		cs, err := crashenum.ParseState(desc)
		exitOnErr(err)
		var viols []string
		if isRecover {
			sub, err := crashenum.ParseState(subDesc)
			exitOnErr(err)
			viols, err = crashenum.ReplayRecoverCrash(kind, *seed, o, cs, sub)
			exitOnErr(err)
		} else {
			viols, err = crashenum.Replay(kind, *seed, o, cs)
			exitOnErr(err)
		}
		if len(viols) == 0 {
			fmt.Printf("replay %s seed=%d %s: clean\n", kind, *seed, *replay)
			return
		}
		fmt.Printf("replay %s seed=%d %s: %d violations\n", kind, *seed, *replay, len(viols))
		for _, v := range viols {
			fmt.Println("  ", v)
		}
		os.Exit(1)
	}

	rpt, err := crashenum.Run(o)
	exitOnErr(err)
	fmt.Printf("explored %d distinct crash states across %d runs: %d violations\n",
		rpt.States, rpt.Runs, len(rpt.Violations))
	for _, v := range rpt.Violations {
		if v.MultiState != "" {
			fmt.Printf("VIOLATION %s seed=%d state=%s shrunk=%s\n", v.Workload, v.Seed, v.MultiState, v.MultiShrunk)
		} else {
			fmt.Printf("VIOLATION %s seed=%d state=%s shrunk=%s\n", v.Workload, v.Seed, v.State, v.Shrunk)
		}
		for _, d := range v.Desc {
			fmt.Println("  ", d)
		}
		fmt.Printf("  replay with: aru-crashcheck %s\n", v.Artifact)
	}
	if len(rpt.Violations) > 0 {
		os.Exit(1)
	}
	if *minStates > 0 && rpt.States < *minStates {
		fmt.Fprintf(os.Stderr, "aru-crashcheck: explored %d states, below the floor of %d\n", rpt.States, *minStates)
		os.Exit(1)
	}
}
