package crashenum

import (
	"fmt"

	"aru/internal/core"
	"aru/internal/workload"
)

// Options configures a checker run.
type Options struct {
	// Seed is the first workload seed; Seeds consecutive seeds run
	// (default 1 seed).
	Seed  int64
	Seeds int
	// MaxStates bounds the total number of distinct crash states
	// explored across all runs (0 = unlimited).
	MaxStates int
	// ReorderWindow bounds how far back reordering may lose a write
	// within the crash epoch (default 3).
	ReorderWindow int
	// Mixed runs the mixed-ARU workload; FS runs the file-system
	// workload; Shard runs the sharded cross-shard 2PC workload; Net
	// runs the mixed-style workload through an ldnet client/server
	// pair, with durability judged by client-received acks; Wrap runs
	// simple overwrites on a log short enough to wrap many times, with
	// checkpoints as the only durability points (runWrap).
	// Default is Mixed only.
	Mixed bool
	FS    bool
	Shard bool
	Net   bool
	Wrap  bool
	// RecoverCrash additionally crashes recovery itself: for a sampled
	// subset of clean single-device crash states, the first recovery's
	// own device writes are journaled and sub-enumerated, and every
	// double-crash image must re-recover clean (same oracle, judged at
	// the original crash epoch). RecoverSample is the reciprocal
	// sampling rate (default 16: roughly one state in 16);
	// MaxRecoverStates bounds sub-states per sampled state (default
	// 48). Sub-states count toward MaxStates.
	RecoverCrash     bool
	RecoverSample    int
	MaxRecoverStates int
	// Shards sets the shard count of the sharded workload (default 2).
	Shards int
	// MixedParams sizes the mixed workload (zero = defaults).
	MixedParams workload.MixedParams
	// Inject selects a deliberate engine bug ("nosync",
	// "untagged-replay", "ack-early") to validate the oracle; ""
	// checks the real engine.
	Inject string
	// MaxViolationsPerRun stops checking a run's remaining states
	// after this many violations (default 3); the checker still
	// reports the run as failing.
	MaxViolationsPerRun int
	// NoShrink skips minimizing failures (shrinking re-runs recovery
	// many times).
	NoShrink bool
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Violation is one oracle failure, with everything needed to replay
// it: the workload kind, its seed, and the (shrunk) crash state.
type Violation struct {
	Workload string
	Seed     int64
	State    CrashState // as found (single-device workloads)
	Shrunk   CrashState // minimal failing state
	// MultiState/MultiShrunk are the multi-device descriptors of shard
	// workload violations (State/Shrunk are unused there).
	MultiState  string
	MultiShrunk string
	Desc        []string // oracle output for the shrunk state
	Artifact    string   // replayable descriptor for -replay
}

// Report summarizes a checker run.
type Report struct {
	Runs       int
	States     int // distinct crash states checked
	Violations []Violation
}

// Run executes the configured workloads, enumerates the crash states
// of each execution, and checks every state against the oracle.
func Run(o Options) (Report, error) {
	if o.Seeds <= 0 {
		o.Seeds = 1
	}
	if o.MaxViolationsPerRun <= 0 {
		o.MaxViolationsPerRun = 3
	}
	if o.RecoverSample <= 0 {
		o.RecoverSample = 16
	}
	if o.MaxRecoverStates <= 0 {
		o.MaxRecoverStates = 48
	}
	if !o.Mixed && !o.FS && !o.Shard && !o.Net && !o.Wrap {
		o.Mixed = true
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var rpt Report
	budgetLeft := func() int {
		if o.MaxStates == 0 {
			return -1
		}
		return o.MaxStates - rpt.States
	}
	for s := int64(0); s < int64(o.Seeds); s++ {
		seed := o.Seed + s
		if o.Mixed {
			if err := runOne(&rpt, o, "mixed", seed, logf, budgetLeft); err != nil {
				return rpt, err
			}
		}
		if o.FS {
			if err := runOne(&rpt, o, "fs", seed, logf, budgetLeft); err != nil {
				return rpt, err
			}
		}
		if o.Net {
			if err := runOne(&rpt, o, "net", seed, logf, budgetLeft); err != nil {
				return rpt, err
			}
		}
		if o.Wrap {
			if err := runOne(&rpt, o, "wrap", seed, logf, budgetLeft); err != nil {
				return rpt, err
			}
		}
		if o.Shard {
			if err := runShardOne(&rpt, o, seed, logf, budgetLeft); err != nil {
				return rpt, err
			}
		}
		if o.MaxStates > 0 && rpt.States >= o.MaxStates {
			break
		}
	}
	return rpt, nil
}

// workloadRun is one executed single-device workload: its journal and
// the oracle over its crash states.
type workloadRun struct {
	journal    []WriteOp
	size       int64
	startEpoch int
	params     core.Params
	check      func(cs CrashState, img []byte) []string
	window     int // reorder window of its own (0 = Options.ReorderWindow)
}

// workload packages an engine-level execution for enumeration.
func (res *runResult) workload() workloadRun {
	return workloadRun{res.rec.Journal(), res.rec.Size(), res.startEpoch, res.params, res.checkImage, res.window}
}

// workloadJournal executes one single-device workload instance and
// returns its journal plus oracle.
func workloadJournal(kind string, seed int64, o Options) (workloadRun, error) {
	switch kind {
	case "mixed":
		res, err := runMixed(seed, o.MixedParams, o.Inject)
		if err != nil {
			return workloadRun{}, fmt.Errorf("crashenum: mixed workload seed %d: %w", seed, err)
		}
		return res.workload(), nil
	case "fs":
		res, err := runFS(seed, o.Inject)
		if err != nil {
			return workloadRun{}, fmt.Errorf("crashenum: fs workload seed %d: %w", seed, err)
		}
		return workloadRun{res.rec.Journal(), res.rec.Size(), res.startEpoch, res.params, res.checkImage, 0}, nil
	case "net":
		res, err := runNet(seed, o.MixedParams, o.Inject)
		if err != nil {
			return workloadRun{}, fmt.Errorf("crashenum: net workload seed %d: %w", seed, err)
		}
		return res.workload(), nil
	case "wrap":
		res, err := runWrap(seed, o.Inject)
		if err != nil {
			return workloadRun{}, fmt.Errorf("crashenum: wrap workload seed %d: %w", seed, err)
		}
		return res.workload(), nil
	default:
		return workloadRun{}, fmt.Errorf("crashenum: unknown workload %q", kind)
	}
}

// runOne executes one workload instance and checks its crash states.
func runOne(rpt *Report, o Options, kind string, seed int64, logf func(string, ...any), budgetLeft func() int) error {
	w, err := workloadJournal(kind, seed, o)
	if err != nil {
		return err
	}
	journal, size, check := w.journal, w.size, w.check
	window := o.ReorderWindow
	if w.window > 0 {
		window = w.window
	}
	rpt.Runs++
	violations := 0
	var recErr error
	ForEachState(journal, size, w.startEpoch, window, seed, func(cs CrashState, img []byte) bool {
		rpt.States++
		viols := check(cs, img)
		if len(viols) > 0 {
			violations++
			v := Violation{Workload: kind, Seed: seed, State: cs, Shrunk: cs, Desc: viols}
			if !o.NoShrink {
				v.Shrunk = Shrink(cs, func(cand CrashState) bool {
					return len(check(cand, MaterializeState(journal, size, cand))) > 0
				})
				v.Desc = check(v.Shrunk, MaterializeState(journal, size, v.Shrunk))
			}
			v.Artifact = fmt.Sprintf("-workloads %s -seed %d -replay %s", kind, seed, v.Shrunk)
			rpt.Violations = append(rpt.Violations, v)
			logf("VIOLATION %s seed=%d state=%s shrunk=%s: %v", kind, seed, v.State, v.Shrunk, v.Desc)
			if violations >= o.MaxViolationsPerRun {
				return false
			}
		}
		if len(viols) == 0 && o.RecoverCrash && sampleRecoverCrash(cs, seed, o.RecoverSample) {
			outer := cs
			recErr = recoverThenCrash(cs, img, w.params, check, o.ReorderWindow, seed, o.MaxRecoverStates,
				func(sub CrashState, viols []string) bool {
					rpt.States++
					if len(viols) > 0 {
						violations++
						v := Violation{Workload: kind + "+recover", Seed: seed, State: outer, Shrunk: outer, Desc: viols}
						v.Artifact = fmt.Sprintf("-workloads %s -seed %d -replay %s+R%s", kind, seed, outer, sub)
						rpt.Violations = append(rpt.Violations, v)
						logf("VIOLATION %s+recover seed=%d state=%s sub=%s: %v", kind, seed, outer, sub, viols)
						if violations >= o.MaxViolationsPerRun {
							return false
						}
					}
					if left := budgetLeft(); left >= 0 && left <= 0 {
						return false
					}
					return true
				})
			if recErr != nil || violations >= o.MaxViolationsPerRun {
				return false
			}
		}
		if left := budgetLeft(); left >= 0 && left <= 0 {
			return false
		}
		return true
	})
	if recErr != nil {
		return recErr
	}
	logf("%s seed=%d: %d distinct states so far, %d violations", kind, seed, rpt.States, len(rpt.Violations))
	return nil
}

// runShardOne executes one sharded workload instance and checks its
// multi-device crash states through full multi-shard recovery.
func runShardOne(rpt *Report, o Options, seed int64, logf func(string, ...any), budgetLeft func() int) error {
	nShards := o.Shards
	if nShards <= 0 {
		nShards = 2
	}
	res, err := runShard(seed, nShards, o.Inject)
	if err != nil {
		return fmt.Errorf("crashenum: shard workload seed %d: %w", seed, err)
	}
	journals, syncsG, sizes := res.journals()
	rpt.Runs++
	violations := 0
	ForEachMultiState(journals, syncsG, sizes, res.startG, o.ReorderWindow, seed, func(ms MultiState, imgs [][]byte) bool {
		rpt.States++
		if viols := res.checkImage(ms, imgs); len(viols) > 0 {
			violations++
			v := Violation{Workload: "shard", Seed: seed, MultiState: ms.String(), MultiShrunk: ms.String(), Desc: viols}
			if !o.NoShrink {
				shrunk := ShrinkMulti(ms, func(cand MultiState) bool {
					return len(res.checkImage(cand, MaterializeMultiState(journals, sizes, cand))) > 0
				})
				v.MultiShrunk = shrunk.String()
				v.Desc = res.checkImage(shrunk, MaterializeMultiState(journals, sizes, shrunk))
			}
			v.Artifact = fmt.Sprintf("-workloads shard -shards %d -seed %d -replay %s", nShards, seed, v.MultiShrunk)
			rpt.Violations = append(rpt.Violations, v)
			logf("VIOLATION shard seed=%d state=%s shrunk=%s: %v", seed, v.MultiState, v.MultiShrunk, v.Desc)
			if violations >= o.MaxViolationsPerRun {
				return false
			}
		}
		if left := budgetLeft(); left >= 0 && left <= 0 {
			return false
		}
		return true
	})
	logf("shard seed=%d: %d distinct states so far, %d violations", seed, rpt.States, len(rpt.Violations))
	return nil
}

// ReplayShard re-runs the sharded workload and checks exactly one
// multi-device crash state, the -replay path for shard violations.
func ReplayShard(seed int64, o Options, ms MultiState) ([]string, error) {
	nShards := o.Shards
	if nShards <= 0 {
		nShards = 2
	}
	res, err := runShard(seed, nShards, o.Inject)
	if err != nil {
		return nil, err
	}
	journals, _, sizes := res.journals()
	if len(ms.Dev) != len(journals) {
		return nil, fmt.Errorf("crashenum: state has %d devices, workload has %d (shard count mismatch?)", len(ms.Dev), len(journals))
	}
	return res.checkImage(ms, MaterializeMultiState(journals, sizes, ms)), nil
}

// Replay re-runs one workload and checks exactly one crash state,
// returning the oracle's findings. It is the -replay path of
// cmd/aru-crashcheck: a failure artifact (workload, seed, state
// descriptor) reproduces deterministically.
func Replay(kind string, seed int64, o Options, cs CrashState) ([]string, error) {
	w, err := workloadJournal(kind, seed, o)
	if err != nil {
		return nil, err
	}
	return w.check(cs, MaterializeState(w.journal, w.size, cs)), nil
}
