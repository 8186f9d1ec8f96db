// Package aru is a log-structured Logical Disk with atomic recovery
// units (ARUs), reproducing "Atomic Recovery Units: Failure Atomicity
// for Logical Disks" (Grimm, Hsieh, Kaashoek, de Jonge; ICDCS 1996).
//
// The Logical Disk (LD) separates disk management from file management:
// clients address logical blocks arranged in ordered lists and never
// see physical placement. An atomic recovery unit brackets several LD
// operations between BeginARU and EndARU so that, after a crash, either
// all or none of them are persistent:
//
//	layout := aru.DefaultLayout(800)           // the paper's 400 MB format
//	dev := aru.NewMemDevice(layout.DiskBytes())
//	d, _ := aru.Format(dev, aru.Params{Layout: layout})
//	lst, _ := d.NewList(aru.Simple)
//
//	a, _ := d.BeginARU()
//	b, _ := d.NewBlock(a, lst, aru.NilBlock)   // allocate + insert
//	_ = d.Write(a, b, payload)                 // shadow write
//	_ = d.EndARU(a)                            // all-or-nothing unit
//	_ = d.Flush()                              // …and now durable
//
// ARUs provide failure atomicity only: no isolation (each ARU reads its
// own shadow state; clients do their own locking) and no durability
// (EndARU does not flush). See the package documentation of
// aru/internal/core for the full semantics, and DESIGN.md for how the
// pieces map onto the paper.
package aru

import (
	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/obs"
	"aru/internal/seg"
)

// Identifier types of the LD interface.
type (
	// BlockID names a logical disk block; 0 (NilBlock) is never valid.
	BlockID = core.BlockID
	// ListID names an ordered list of blocks; 0 (NilList) is never
	// valid.
	ListID = core.ListID
	// ARUID names an atomic recovery unit. Pass Simple (0) to run an
	// operation outside any ARU.
	ARUID = core.ARUID
)

// Sentinel identifiers.
const (
	// NilBlock marks "no block": the head position for NewBlock, the
	// successor of a list's last block.
	NilBlock = core.NilBlock
	// NilList marks "no list".
	NilList = core.NilList
	// Simple tags an operation that is not part of any ARU; it forms
	// an atomic unit by itself (a "simple operation").
	Simple = seg.SimpleARU
)

// Disk re-exports the LLD engine. All methods are safe for concurrent
// use. Read-only operations (Read, ListBlocks, Stats, …) run against
// epoch-based MVCC snapshots: each one loads the current epoch with a
// single atomic pointer read plus a refcount, so simple readers never
// touch the engine mutex and scale with cores, while mutating operations
// serialize behind the engine lock and publish a new epoch at each
// durability point. BeginARU and a unit's shadow updates publish nothing
// until a read inside the unit, AcquireSnapshot or Stats needs them.
// AcquireSnapshot pins an epoch explicitly for multi-read consistency
// (see Snapshot). See aru/internal/core.LLD and DESIGN.md §16.
//
// Besides EndARU, an open unit can be discarded with AbortARU: its
// shadow state is dropped and none of its operations ever reach the
// committed state, exactly as if the client had crashed (identifiers
// it allocated are swept by the next consistency check — paper §3.3).
// AbortARU returns ErrAbortUnsupported on the sequential VariantOld
// build, which applies operations in place and cannot roll back.
//
// A Disk can also be served to remote clients: see Interface, Dial
// and NewNetServer (cmd/aru-serve is the ready-made server binary).
type Disk = core.LLD

// Params configures Format and Open; see aru/internal/core.Params. Its
// one cleaner threshold is CleanerLowWater: the cleaner starts when fewer
// segments are reusable and stops once that many are again.
type Params = core.Params

// Snapshot is a pinned read-only view of one published epoch: the
// same answers, byte for byte, no matter how many commits, flushes or
// cleaner passes run afterwards, until Release. Acquire one with
// (*Disk).AcquireSnapshot; a crashed or closed disk turns outstanding
// handles stale (ErrSnapshotStale) instead of serving diverged data.
type Snapshot = core.Snapshot

// ErrSnapshotStale reports a Snapshot used after release, or after
// the disk it pins crashed or closed.
var ErrSnapshotStale = core.ErrSnapshotStale

// Layout describes the on-disk geometry; see aru/internal/seg.Layout.
type Layout = seg.Layout

// Variant selects the concurrent-ARU prototype or the sequential-ARU
// baseline (the paper's "new" and "old" builds).
type Variant = core.Variant

// Variants.
const (
	// VariantNew is the paper's prototype with concurrent ARUs.
	VariantNew = core.VariantNew
	// VariantOld is the 1993 LLD baseline with sequential ARUs.
	VariantOld = core.VariantOld
)

// ReadSemantics selects which of the paper's three Read-visibility
// options (§3.3) Read provides.
type ReadSemantics = core.ReadSemantics

// Read-visibility options.
const (
	// ReadOwnShadow: an ARU reads its own shadow state; simple reads
	// see the committed state (the paper's choice, option 3).
	ReadOwnShadow = core.ReadOwnShadow
	// ReadAnyShadow: every client sees the most recent shadow version
	// of any ARU (option 1).
	ReadAnyShadow = core.ReadAnyShadow
	// ReadCommitted: every client sees only committed versions
	// (option 2).
	ReadCommitted = core.ReadCommitted
)

// Stats are the operation counters of a Disk, as returned by
// (*Disk).Stats.
//
// Every snapshot is coherent with respect to mutating operations:
// Stats returns the counter image frozen into the current epoch when it
// was published (taking the lock only to publish a pending shadow
// update first), so no commit, flush, clean or recovery is ever
// observed half-counted. Reads and Flushes are counted
// outside the engine lock and overlaid live: each is read atomically —
// never torn — and is monotone across snapshots, but may already
// include operations that started after the Stats call did.
type Stats = core.Stats

// RecoveryReport summarizes what Open reconstructed after a crash.
type RecoveryReport = core.RecoveryReport

// Observability types, re-exported from aru/internal/obs. Attach a
// Tracer via Params.Tracer to collect per-operation latency histograms
// and a bounded in-memory ring of spans; read them back through
// (*Disk).Metrics and Tracer.Spans, or serve them over HTTP with
// ServeMetrics. A nil Tracer (the default) reduces the whole subsystem
// to one pointer check per operation.
type (
	// Tracer collects spans and latency histograms; see
	// aru/internal/obs.Tracer.
	Tracer = obs.Tracer
	// TracerConfig parameterizes NewTracer.
	TracerConfig = obs.Config
	// HistSnapshot is a point-in-time copy of one latency histogram.
	HistSnapshot = obs.HistSnapshot
	// Counter is one named counter or gauge for metrics exposition.
	Counter = obs.Counter
	// MetricsOptions configures ServeMetrics.
	MetricsOptions = obs.HandlerOptions
	// Span is the one trace record (DESIGN.md §8): a commit, flush,
	// batch, sync, read, recovery phase … linked by trace/parent ids
	// into the causal chain a durable commit travels; an instant (ARU
	// begun, epoch published) is a span of zero duration.
	Span = obs.Span
	// SpanKind discriminates spans (client-rpc, engine-commit, …).
	SpanKind = obs.SpanKind
	// SpanContext carries a trace across API boundaries: pass one to
	// (*Disk).EndARUTraced / FlushTraced, or let DialConfig.Tracer
	// propagate it over the wire automatically.
	SpanContext = obs.SpanContext
	// FlightRecorder dumps the tracer's recent spans and histograms
	// to a JSON file on panic, slow-RPC breach or SIGUSR1.
	FlightRecorder = obs.FlightRecorder
)

// NewFlightRecorder returns a FlightRecorder reading from t; see
// aru/internal/obs.FlightRecorder for the dump triggers.
func NewFlightRecorder(t *Tracer) *FlightRecorder { return obs.NewFlightRecorder(t) }

// WriteChromeTrace exports a span snapshot ((*Tracer).Spans) as Chrome
// trace-event JSON loadable in Perfetto (ui.perfetto.dev); the same
// document is served at /debug/trace by ServeMetrics.
var WriteChromeTrace = obs.WriteChromeTrace

// NewTracer returns a Tracer ready to pass as Params.Tracer. One
// Tracer may be shared by several Disk instances (successive
// generations of the same logical disk, say) to accumulate histograms
// across them.
func NewTracer(c TracerConfig) *Tracer { return obs.New(c) }

// ServeMetrics starts an HTTP listener on addr exposing Prometheus
// text metrics on /metrics, expvar on /debug/vars and pprof under
// /debug/pprof/. See aru/internal/obs.ServeMetrics.
var ServeMetrics = obs.ServeMetrics

// StatsCounters flattens a Stats snapshot into the counter list the
// metrics handler exports; use it as MetricsOptions.Counters:
//
//	opts := aru.MetricsOptions{
//		Counters: func() []aru.Counter { return aru.StatsCounters(d.Stats()) },
//		Tracer:   tracer,
//	}
func StatsCounters(s Stats) []Counter { return obs.FlattenCounters(s) }

// Errors of the LD interface, re-exported for errors.Is tests. They
// match both locally and through a network client (the wire protocol
// carries the error code; see aru/internal/ldnet).
var (
	ErrNoSuchBlock = core.ErrNoSuchBlock
	ErrNoSuchList  = core.ErrNoSuchList
	ErrNoSuchARU   = core.ErrNoSuchARU
	ErrARUActive   = core.ErrARUActive
	ErrNotMember   = core.ErrNotMember
	ErrNoSpace     = core.ErrNoSpace
	// ErrAbortUnsupported is returned by (*Disk).AbortARU on the
	// sequential VariantOld build: the 1993 LLD executes in-ARU
	// operations directly in the committed state, so there is no
	// shadow state to discard and an open unit cannot be rolled back
	// (only a crash before its commit record aborts it). The
	// concurrent VariantNew build always supports AbortARU.
	ErrAbortUnsupported = core.ErrAbortUnsupported
	ErrClosed           = core.ErrClosed
)

// DefaultLayout returns the paper's disk format — 4 KB blocks, 0.5 MB
// segments — with numSegs log segments (800 gives the evaluation's
// 400 MB partition).
func DefaultLayout(numSegs int) Layout {
	return seg.DefaultLayout(numSegs)
}

// Format initializes dev with the layout in p and returns a fresh
// logical disk.
func Format(dev disk.Disk, p Params) (*Disk, error) {
	return core.Format(dev, p)
}

// Open mounts an LD-formatted device, running crash recovery: the
// newest checkpoint is loaded, the log beyond it is replayed (applying
// only operations whose ARU committed), and blocks leaked by
// uncommitted ARUs are freed.
func Open(dev disk.Disk, p Params) (*Disk, error) {
	return core.Open(dev, p)
}

// OpenReport is Open plus a report of what recovery did.
func OpenReport(dev disk.Disk, p Params) (*Disk, RecoveryReport, error) {
	return core.OpenReport(dev, p)
}
