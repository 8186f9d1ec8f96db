package crashenum

import (
	"fmt"
	"strings"

	"aru/internal/workload"
)

// workloads maps each workload's name to its executor: mixed runs the
// mixed-ARU script on one engine; fs runs a file-system workload on
// minixfs; net runs mixed-style units through an ldnet client/server
// pair, with durability judged by client-received acks; wrap runs
// simple overwrites on a log short enough to wrap many times, with
// checkpoints as the only durability points; maint runs units with
// explicit and automatic checkpoints and cleaner passes between their
// operations; shard runs cross-shard 2PC units over several engines and
// a coordinator log.
var workloads = map[string]func(seed int64, o Options) (*execution, error){
	"mixed": runMixed, "fs": runFS, "net": runNet, "wrap": runWrap, "maint": runMaint, "shard": runShard,
}

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
	// Workloads names the workloads to run for every seed, in order:
	// mixed, fs, net, wrap, maint, shard (default mixed only).
	Workloads []string
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
	// Inject names a deliberate bug from Injections to validate the
	// oracle; "" checks the real engine.
	Inject string
	// MaxViolationsPerRun stops checking a run's remaining states
	// after this many violations (default 3); the checker still
	// reports the run as failing.
	MaxViolationsPerRun int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// withDefaults fills in the defaults and rejects unknown workloads.
func (o Options) withDefaults() (Options, error) {
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
	if len(o.Workloads) == 0 {
		o.Workloads = []string{"mixed"}
	}
	for _, kind := range o.Workloads {
		if workloads[kind] == nil {
			return o, fmt.Errorf("crashenum: unknown workload %q", kind)
		}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o, nil
}

// Violation is one oracle failure, with everything needed to replay
// it: the workload kind, its seed, and the (shrunk) crash state.
type Violation struct {
	Workload string
	Seed     int64
	State    string   // descriptor of the state as found
	Shrunk   string   // descriptor of the minimal failing state
	Desc     []string // oracle output for the shrunk state
	Artifact string   // aru-crashcheck arguments that replay Shrunk
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
	var rpt Report
	o, err := o.withDefaults()
	if err != nil {
		return rpt, err
	}
	for s := int64(0); s < int64(o.Seeds); s++ {
		for _, kind := range o.Workloads {
			if err := runOne(&rpt, o, kind, o.Seed+s); err != nil {
				return rpt, err
			}
		}
		if o.MaxStates > 0 && rpt.States >= o.MaxStates {
			break
		}
	}
	return rpt, nil
}

// execute runs one workload instance.
func execute(kind string, seed int64, o Options) (*execution, error) {
	x, err := workloads[kind](seed, o)
	if err != nil {
		return nil, fmt.Errorf("crashenum: %s workload seed %d: %w", kind, seed, err)
	}
	return x, nil
}

// runOne executes one workload instance and checks its crash states.
func runOne(rpt *Report, o Options, kind string, seed int64) error {
	x, err := execute(kind, seed, o)
	if err != nil {
		return err
	}
	j := journalsOf(x.recs)
	window := o.ReorderWindow
	if x.window > 0 {
		window = x.window
	}
	rpt.Runs++
	violations := 0
	// more records one checked state and its findings, and reports
	// whether the run goes on: not past its violation limit, nor past the
	// state budget.
	more := func(label, state, shrunk string, viols []string) bool {
		rpt.States++
		if len(viols) > 0 {
			violations++
			v := Violation{Workload: label, Seed: seed, State: state, Shrunk: shrunk, Desc: viols,
				Artifact: fmt.Sprintf("%s -seed %d -replay %s", x.flags, seed, shrunk)}
			rpt.Violations = append(rpt.Violations, v)
			o.Logf("VIOLATION %s seed=%d state=%s shrunk=%s: %v", label, seed, state, shrunk, viols)
		}
		return violations < o.MaxViolationsPerRun && (o.MaxStates == 0 || rpt.States < o.MaxStates)
	}
	var recErr error
	j.forEach(x.start, window, seed, func(st State, imgs [][]byte) bool {
		viols := x.check(st.at(), imgs)
		shrunk := st
		if len(viols) > 0 {
			shrunk = shrinkState(st, func(cand State) bool {
				return len(x.check(cand.at(), j.materialize(cand))) > 0
			})
			viols = x.check(shrunk.at(), j.materialize(shrunk))
		}
		if !more(kind, st.String(), shrunk.String(), viols) {
			return false
		}
		// Recovery itself is crashed on one device only: a sharded
		// recovery is several journaled recoveries on one clock.
		if len(viols) > 0 || !o.RecoverCrash || len(imgs) > 1 || !sampleRecoverCrash(st, seed, o.RecoverSample) {
			return true
		}
		goOn := true
		recErr = x.recoverThenCrash(st, imgs[0], o.ReorderWindow, seed, o.MaxRecoverStates, func(sub State, viols []string) bool {
			desc := st.String() + "+R" + sub.String()
			goOn = more(kind+"+recover", desc, desc, viols)
			return goOn
		})
		return goOn && recErr == nil
	})
	if recErr != nil {
		return recErr
	}
	o.Logf("%s seed=%d: %d distinct states so far, %d violations", kind, seed, rpt.States, len(rpt.Violations))
	return nil
}

// Replay re-runs one workload and checks exactly one crash state,
// returning the oracle's findings. It is the -replay path of
// cmd/aru-crashcheck: a failure artifact (workload, seed, state
// descriptor) reproduces deterministically. A descriptor
// "<outer>+R<sub>" names a recovery re-crash: the outer state is
// materialized, the first recovery over it journaled, and the oracle
// run on sub-state sub of that journal.
func Replay(kind string, seed int64, o Options, desc string) ([]string, error) {
	if workloads[kind] == nil {
		return nil, fmt.Errorf("crashenum: unknown workload %q", kind)
	}
	outer, subDesc, recrash := strings.Cut(desc, "+R")
	st, err := ParseDescriptor(outer)
	if err != nil {
		return nil, err
	}
	x, err := execute(kind, seed, o)
	if err != nil {
		return nil, err
	}
	j := journalsOf(x.recs)
	if len(st.Dev) != len(j.ops) {
		return nil, fmt.Errorf("crashenum: state %s has %d devices, the %s workload has %d (shard count mismatch?)",
			outer, len(st.Dev), kind, len(j.ops))
	}
	imgs := j.materialize(st)
	if recrash {
		sub, err := ParseDescriptor(subDesc)
		if err != nil {
			return nil, err
		}
		if len(imgs) != 1 || len(sub.Dev) != 1 {
			return nil, fmt.Errorf("crashenum: a recovery re-crash (%s) is a state of one device", desc)
		}
		rj, _, err := x.recoverJournal(st, imgs[0])
		if err != nil {
			return nil, err
		}
		imgs = rj.materialize(sub)
	}
	return x.check(st.at(), imgs), nil
}
