package crashenum

import (
	"errors"
	"fmt"

	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/ldnet"
	"aru/internal/seg"
	"aru/internal/shard"
)

// checkerLayout is the small geometry the checker runs against: 1 KB
// blocks and 8 KB segments keep every engine mechanism (sealing,
// checkpoints, cleaning) firing constantly within a ~1 MB image, so
// each crash state is cheap to materialize and recover.
func checkerLayout() seg.Layout {
	return seg.Layout{
		BlockSize: 1024,
		SegBytes:  8192,
		NumSegs:   96,
		MaxBlocks: 2048,
		MaxLists:  512,
	}
}

// Injection is a deliberate bug the checker can be run against, to
// validate that the oracle actually catches violations.
type Injection struct {
	Name string
	// Needs names the workloads whose enumerated crash states expose the
	// bug (seeds 1–8); on the others the broken build runs clean.
	Needs string
	apply func(o *shard.Options)
}

// Injections is the one table of deliberate bugs, for every workload.
var Injections = []Injection{
	{"nosync", "any workload", func(o *shard.Options) {
		o.Params.Faults = &core.FaultHooks{NoSyncOnFlush: true}
	}},
	{"untagged-replay", "mixed, fs, net or maint", func(o *shard.Options) {
		o.Params.Faults = &core.FaultHooks{UntaggedReplay: true}
	}},
	// The broken group-commit broker: batch waiters are woken without
	// the device sync having run, so Flush acknowledges durability on
	// unsynced segments.
	{"ack-early", "mixed, fs, net or shard", func(o *shard.Options) {
		o.Params.Faults = &core.FaultHooks{AckBeforeSync: true}
	}},
	// The broken publish barrier: a checkpoint record advances the
	// segment-reuse watermark without being synced first, so a crash can
	// lose the record while segments its predecessor's replay window
	// needs have already been overwritten. A smaller log brings the
	// wrap-around reuse that exposes the bug nearer; the workload that
	// reaches it is the wrapped log (runWrap, which sets its own size): a
	// segment is retired only when full, and the scripted workloads sync
	// long before a rewrite can follow the record that allowed it.
	{"torn-delta", "wrap", func(o *shard.Options) {
		o.Params.Faults = &core.FaultHooks{TornDeltaPublish: true}
		o.Params.Layout.NumSegs = 18
	}},
	// The broken 2PC schedule: the coordinator's commit record is synced
	// before the participants' prepares.
	{"commit-before-prepare-sync", "shard", func(o *shard.Options) {
		o.Faults.CommitBeforePrepareSync = true
	}},
}

// checkerOptions returns the configuration of a checker run under the
// named injection ("" or "none" checks the real engine): the engine
// parameters of every workload, inside the sharded disk's options. The
// 2PC schedule must be deterministic — FaultHooks.Sequential — so a (seed,
// crash state) pair replays exactly.
//
// CkptCompactEvery is pinned low so every run exercises the whole
// incremental-checkpoint life cycle — delta appends, chain replay, and
// base compaction — and the enumerator therefore crashes inside all of
// those phases (torn delta records, published-but-unsynced deltas,
// compaction mid-flight).
func checkerOptions(inject string) (shard.Options, error) {
	o := shard.Options{Faults: &shard.FaultHooks{Sequential: true}, Params: core.Params{
		Layout:           checkerLayout(),
		CheckpointEvery:  8,
		CkptCompactEvery: 3,
		CacheBlocks:      128,
	}}
	if inject == "" || inject == "none" {
		return o, nil
	}
	for _, inj := range Injections {
		if inj.Name == inject {
			inj.apply(&o)
			return o, nil
		}
	}
	return o, fmt.Errorf("crashenum: unknown injection %q", inject)
}

// engine is the setup the single-engine workloads share: a logical
// disk formatted on a fresh Recorder with the checker's parameters.
type engine struct {
	d      *core.LLD
	rec    *Recorder
	params core.Params
}

// formatEngine formats an engine under the named injection; tune, when
// not nil, adjusts the parameters first.
func formatEngine(inject string, tune func(*core.Params)) (*engine, error) {
	o, err := checkerOptions(inject)
	if err != nil {
		return nil, err
	}
	if o.Faults.CommitBeforePrepareSync {
		return nil, fmt.Errorf("crashenum: injection %q breaks the 2PC schedule and needs the shard workload", inject)
	}
	e := &engine{params: o.Params}
	if tune != nil {
		tune(&e.params)
	}
	e.rec = NewRecorder(e.params.Layout.DiskBytes(), nil)
	if e.d, err = core.Format(e.rec, e.params); err != nil {
		return nil, fmt.Errorf("crashenum: format: %w", err)
	}
	return e, nil
}

// now is the engine's position: the epoch of its recorder.
func (e *engine) now() uint64 { return uint64(e.rec.Epoch()) }

// flushAndCheckpoint makes everything so far a durable base.
func (e *engine) flushAndCheckpoint() error {
	if err := e.d.Flush(); err != nil {
		return err
	}
	return e.d.Checkpoint()
}

// execution packages the engine's run of the named workload.
func (e *engine) execution(kind string, start uint64, judge func(recovered, uint64, *[]string)) *execution {
	return &execution{flags: "-workloads " + kind, recs: []*Recorder{e.rec}, start: start,
		mount: mountEngine(e.params), judge: judge}
}

// addf appends one oracle finding to viols.
func addf(viols *[]string, format string, args ...any) {
	*viols = append(*viols, fmt.Sprintf(format, args...))
}

// snapshotReader is a pinned lock-free view of a recovered disk.
type snapshotReader interface {
	Read(aru core.ARUID, b core.BlockID, dst []byte) error
	ListBlocks(aru core.ARUID, lst core.ListID) ([]core.BlockID, error)
	Release()
}

// recovered is a disk mounted from a crash image, as the oracle sees
// it: the LD operation set, the consistency entry points and the
// lock-free read path. *core.LLD and *shard.Disk provide all three;
// only their snapshot types differ.
type recovered struct {
	recoveredDisk
	acquireSnapshot func() (snapshotReader, error)
}

type recoveredDisk interface {
	ldnet.Backend
	VerifyInternal() error
	CheckDisk() (int, error)
}

// execution is one completed workload run: the devices it journaled
// (N recorders on one clock; N = 1 for every workload but shard), where
// its recorded window starts, and the oracle over its crash states.
type execution struct {
	// flags is how aru-crashcheck selects the workload, for artifacts.
	flags string
	recs  []*Recorder
	// start is the position the recorded window starts at — everything
	// before it is a durable base — in the unit State.at reports.
	start  uint64
	window int // reorder window of its own (0 = Options.ReorderWindow)
	// mount runs full recovery over the devices of a crash state. It may
	// report findings of its own.
	mount func(devs []disk.Disk, viols *[]string) (recovered, error)
	// judge checks what the workload recorded against the recovered disk,
	// for a crash at position at.
	judge func(d recovered, at uint64, viols *[]string)
}

// check mounts one crash state through full recovery and checks the
// oracle, returning a description of every violation found (nil for a
// clean state). Panics inside recovery or the checks are converted into
// violations.
func (x *execution) check(at uint64, imgs [][]byte) (viols []string) {
	defer func() {
		if p := recover(); p != nil {
			addf(&viols, "panic during recovery/check: %v", p)
		}
	}()
	devs := make([]disk.Disk, len(imgs))
	for i, img := range imgs {
		devs[i] = disk.FromImage(img, disk.Geometry{})
	}
	d, err := x.mount(devs, &viols)
	if err != nil {
		addf(&viols, "recovery failed: %v", err)
		return viols
	}
	if err := d.VerifyInternal(); err != nil {
		addf(&viols, "internal verification: %v", err)
	}
	x.judge(d, at, &viols)
	// The automatic post-recovery sweep already ran; a second sweep
	// finding anything means recovery left leaked allocations behind.
	if n, err := d.CheckDisk(); err != nil {
		addf(&viols, "post-recovery sweep: %v", err)
	} else if n != 0 {
		addf(&viols, "second consistency sweep freed %d blocks (first left leaks)", n)
	}
	return viols
}

// mountEngine is the mount of a single-engine workload.
func mountEngine(params core.Params) func([]disk.Disk, *[]string) (recovered, error) {
	return func(devs []disk.Disk, viols *[]string) (recovered, error) {
		// Reader-during-recovery phase, replay half: while the image is
		// being replayed the snapshot head does not exist yet, so a read
		// attempt must fail cleanly with ErrClosed — never answer from a
		// half-rebuilt table.
		p := params
		var hooks core.FaultHooks
		if p.Faults != nil {
			hooks = *p.Faults // recovery runs on the same (possibly broken) build
		}
		p.Faults = &hooks
		hooks.RecoveryProbe = func(rd *core.LLD) {
			if h, err := rd.AcquireSnapshot(); err == nil {
				h.Release()
				addf(viols, "read path published before recovery completed")
			} else if !errors.Is(err, core.ErrClosed) {
				addf(viols, "mid-replay read failed uncleanly: %v", err)
			}
		}
		d, _, err := core.OpenReport(devs[0], p)
		if err != nil {
			return recovered{}, err
		}
		return recovered{d, func() (snapshotReader, error) { return d.AcquireSnapshot() }}, nil
	}
}

// mountShards is the mount of the sharded workload: the last device is
// the coordinator log. (No mid-replay probe: the shards recover in
// parallel.)
func mountShards(opts shard.Options) func([]disk.Disk, *[]string) (recovered, error) {
	return func(devs []disk.Disk, _ *[]string) (recovered, error) {
		n := len(devs) - 1
		d, _, err := shard.OpenReport(devs[:n], devs[n], opts)
		if err != nil {
			return recovered{}, err
		}
		return recovered{d, func() (snapshotReader, error) { return d.AcquireSnapshot() }}, nil
	}
}
