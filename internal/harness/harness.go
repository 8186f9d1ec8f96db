// Package harness regenerates every table and figure of the paper's
// evaluation (§5): the three MinixLLD builds of Table 1, the small-file
// throughput of Figure 5, the large-file throughput of Figure 6, and
// the ARU begin/end latency experiment.
//
// # Time accounting
//
// The paper measured wall-clock time on a 70 MHz SPARC-5/70 driving an
// HP C3010 disk. This reproduction runs on a simulated disk with the
// C3010's service-time model and charges CPU time through an explicit
// cost model calibrated to the paper's CPU (see CPUModel): measured
// phase time = simulated disk time + modeled CPU time. That keeps runs
// deterministic — TestModeledGolden compares every phase with a
// recorded run to the nanosecond — while preserving the *shape* of the
// results: which build wins, by roughly what factor, and where the
// overhead of concurrent ARUs shows up.
//
// The wall-clock gates CI runs on in-memory devices (the TestGate*
// tests: group commit, shard scaling and the fast path, the recovery
// curve, read-path contention) are test code of this package; every
// other wall-clock question belongs to the benchmark/ package.
package harness

import (
	"fmt"
	"time"

	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/minixfs"
	"aru/internal/seg"
)

// VariantSpec names one of the MinixLLD builds of Table 1.
type VariantSpec struct {
	// Name is the paper's label: "old", "new" or "new, delete".
	Name string
	// Variant selects the LLD build.
	Variant core.Variant
	// Policy selects the Minix deletion policy.
	Policy minixfs.DeletePolicy
}

// Table1 lists the three builds of the paper's Table 1, in order.
func Table1() []VariantSpec {
	return []VariantSpec{
		{Name: "old", Variant: core.VariantOld, Policy: minixfs.DeleteBlocksFirst},
		{Name: "new", Variant: core.VariantNew, Policy: minixfs.DeleteBlocksFirst},
		{Name: "new, delete", Variant: core.VariantNew, Policy: minixfs.DeleteListFirst},
	}
}

// CPUModel charges deterministic CPU time for the work LLD does, per
// unit of work observed in core.Stats. The defaults are calibrated to
// the paper's 70 MHz SPARC-5/70 (SPARC5Model): the empty-ARU experiment
// lands near the paper's 78.47 µs per Begin/End pair, and per-block
// costs reflect ~50 MB/s memcpy on that machine.
type CPUModel struct {
	PerCall     time.Duration // fixed cost of one LD interface call
	PerEntry    time.Duration // appending one summary entry
	PerBlockIO  time.Duration // moving one block between client and segment
	PerPredStep time.Duration // one step of a predecessor search
	PerShadow   time.Duration // creating one shadow alternative record
	PerComm     time.Duration // creating one committed alternative record
	PerPromote  time.Duration // one committed→persistent promotion
	PerReplay   time.Duration // re-executing one logged list operation
	PerARU      time.Duration // Begin/End pair base cost
	PerFSCall   time.Duration // file-system-level call overhead (path walk step)
}

// SPARC5Model returns the calibrated cost model.
func SPARC5Model() CPUModel {
	return CPUModel{
		PerCall:     3 * time.Microsecond,
		PerEntry:    4 * time.Microsecond,
		PerBlockIO:  85 * time.Microsecond, // ~4 KB memcpy at ~50 MB/s
		PerPredStep: 6 * time.Microsecond,
		PerShadow:   30 * time.Microsecond, // copy-on-write of a record into a shadow chain
		PerComm:     25 * time.Microsecond,
		PerPromote:  70 * time.Microsecond,
		PerReplay:   90 * time.Microsecond, // re-execute one list op + generate link records
		PerARU:      65 * time.Microsecond,
		PerFSCall:   20 * time.Microsecond,
	}
}

// Charge converts a stats delta into modeled CPU time for the given
// LLD build. The committed→persistent transition premium (PerPromote)
// applies only to the concurrent build: the paper attributes that
// transition work to the new version (§5.3), while the 1993 LLD updated
// its single set of tables in place.
func (c CPUModel) Charge(d core.Stats, v core.Variant) time.Duration {
	calls := d.Reads + d.Writes + d.NewBlocks + d.DeleteBlocks + d.NewLists + d.DeleteLists
	t := time.Duration(calls) * c.PerCall
	t += time.Duration(d.EntriesLogged) * c.PerEntry
	t += time.Duration(d.Reads+d.Writes) * c.PerBlockIO
	t += time.Duration(d.PredecessorSearchSteps) * c.PerPredStep
	t += time.Duration(d.ShadowCreated) * c.PerShadow
	t += time.Duration(d.CommittedCreated) * c.PerComm
	t += time.Duration(d.ListOpsReplayed) * c.PerReplay
	t += time.Duration(d.ARUsBegun) * c.PerARU
	if v == core.VariantNew {
		t += time.Duration(d.RecordsPromoted) * c.PerPromote
	}
	return t
}

// Options configures an experiment run. Every run formats the paper's
// 400 MB partition (4 KB blocks, 0.5 MB segments) on the HP C3010 model,
// charges CPU by SPARC5Model and sizes Minix for 16 384 inodes.
type Options struct {
	// CacheBlocks sizes LLD's block cache (default 2048 blocks = 8 MB).
	// The paper's prototype ran against the SunOS *raw* disk interface
	// — no OS page cache — with only Minix's internal buffer cache and
	// LLD's own structures in front of the disk, so the effective cache
	// was small relative to the 80 MB of RAM.
	CacheBlocks int
	// Scale divides the workload size for quick runs (1 = paper
	// scale).
	Scale int
	// Verify re-reads and checks payloads during read phases.
	Verify bool
}

func (o Options) withDefaults() Options {
	if o.CacheBlocks == 0 {
		o.CacheBlocks = 2048
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	return o
}

// Phase is one measured benchmark phase.
type Phase struct {
	Name    string
	Ops     int64         // operations (files, I/Os, ARUs) completed
	Bytes   int64         // payload bytes moved
	Disk    time.Duration // simulated disk time
	CPU     time.Duration // modeled CPU time
	Elapsed time.Duration // Disk + CPU
	Delta   core.Stats    // raw LLD counter deltas for this phase
}

// PerSec returns operations per second of total time.
func (p Phase) PerSec() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Ops) / p.Elapsed.Seconds()
}

// MBPerSec returns payload megabytes per second of total time.
func (p Phase) MBPerSec() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Bytes) / (1 << 20) / p.Elapsed.Seconds()
}

// meter snapshots disk and LLD counters to attribute work to phases.
type meter struct {
	dev       *disk.Sim
	ld        *core.LLD
	cpu       CPUModel
	variant   core.Variant
	fsCall    time.Duration
	lastDisk  time.Duration
	lastStats core.Stats
	fsCalls   int64
}

func newMeter(dev *disk.Sim, ld *core.LLD, v core.Variant) *meter {
	cpu := SPARC5Model()
	return &meter{dev: dev, ld: ld, cpu: cpu, variant: v, fsCall: cpu.PerFSCall}
}

// reset starts a new phase at the current counters.
func (m *meter) reset() {
	m.lastDisk = m.dev.Stats().Elapsed
	m.lastStats = m.ld.Stats()
	m.fsCalls = 0
}

// addFSCalls charges n file-system-level calls to the current phase.
func (m *meter) addFSCalls(n int64) { m.fsCalls += n }

// phase closes the current phase.
func (m *meter) phase(name string, ops, bytes int64) Phase {
	diskNow := m.dev.Stats().Elapsed
	statsNow := m.ld.Stats()
	delta := subStats(statsNow, m.lastStats)
	cpu := m.cpu.Charge(delta, m.variant) + time.Duration(m.fsCalls)*m.fsCall
	p := Phase{
		Name:    name,
		Ops:     ops,
		Bytes:   bytes,
		Disk:    diskNow - m.lastDisk,
		CPU:     cpu,
		Elapsed: diskNow - m.lastDisk + cpu,
		Delta:   delta,
	}
	m.reset()
	return p
}

// subStats returns a-b field-wise for the cumulative counters the cost
// model uses.
func subStats(a, b core.Stats) core.Stats {
	return core.Stats{
		Reads:                  a.Reads - b.Reads,
		Writes:                 a.Writes - b.Writes,
		NewBlocks:              a.NewBlocks - b.NewBlocks,
		DeleteBlocks:           a.DeleteBlocks - b.DeleteBlocks,
		NewLists:               a.NewLists - b.NewLists,
		DeleteLists:            a.DeleteLists - b.DeleteLists,
		ARUsBegun:              a.ARUsBegun - b.ARUsBegun,
		ARUsCommitted:          a.ARUsCommitted - b.ARUsCommitted,
		CoalescedWrites:        a.CoalescedWrites - b.CoalescedWrites,
		SegmentsWritten:        a.SegmentsWritten - b.SegmentsWritten,
		BlocksMaterialized:     a.BlocksMaterialized - b.BlocksMaterialized,
		CacheHits:              a.CacheHits - b.CacheHits,
		CacheMisses:            a.CacheMisses - b.CacheMisses,
		CacheFillAllocs:        a.CacheFillAllocs - b.CacheFillAllocs,
		PrevVersionsEmitted:    a.PrevVersionsEmitted - b.PrevVersionsEmitted,
		Checkpoints:            a.Checkpoints - b.Checkpoints,
		EntriesLogged:          a.EntriesLogged - b.EntriesLogged,
		PredecessorSearchSteps: a.PredecessorSearchSteps - b.PredecessorSearchSteps,
		ShadowCreated:          a.ShadowCreated - b.ShadowCreated,
		CommittedCreated:       a.CommittedCreated - b.CommittedCreated,
		RecordsPromoted:        a.RecordsPromoted - b.RecordsPromoted,
		ListOpsReplayed:        a.ListOpsReplayed - b.ListOpsReplayed,
	}
}

// formatSim formats a fresh simulated disk for spec.
func formatSim(spec VariantSpec, o Options) (*disk.Sim, *core.LLD, error) {
	l := seg.DefaultLayout(800) // 800 × 0.5 MB = 400 MB
	dev := disk.NewSim(l.DiskBytes(), disk.HPC3010())
	ld, err := core.Format(dev, core.Params{
		Layout:      l,
		Variant:     spec.Variant,
		CacheBlocks: o.CacheBlocks,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("harness: format: %w", err)
	}
	return dev, ld, nil
}

// setup builds a simulated disk, LLD and Minix file system for spec.
func setup(spec VariantSpec, o Options) (*disk.Sim, *core.LLD, *minixfs.FS, error) {
	dev, ld, err := formatSim(spec, o)
	if err != nil {
		return nil, nil, nil, err
	}
	fs, err := minixfs.Mkfs(ld, minixfs.Config{NumInodes: 16384, Policy: spec.Policy})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("harness: mkfs: %w", err)
	}
	return dev, ld, fs, nil
}
