// Package obs is the observability layer of the logical disk: one trace
// record — the span, kept in a fixed-size lock-free ring — a set of
// atomic log-scaled latency histograms, each the durations of one span
// kind, and an exposition layer (Prometheus text, expvar, pprof, Chrome
// trace JSON) serving both over HTTP.
//
// The package is engine-agnostic: internal/core records into a *Tracer
// attached via core.Params.Tracer, and embedding applications (the
// Minix file system, the shard layer, the network server, commands)
// record into and read back the same Tracer through core.LLD.Tracer()
// and Metrics().
//
// # Hot-path cost
//
// With no tracer attached the engine pays a single nil-check per
// operation. With a tracer attached, a timed site reads the clock once
// when it starts and once when it ends; the end observes the kind's
// histogram (three atomic adds) and, with the ring on, claims a slot
// with one atomic ticket increment and fills it with atomic stores.
// Nothing on the hot path allocates or takes a lock.
package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// FSOp identifies the file-system-level operation of an fs-op span
// (carried in Arg1).
type FSOp uint32

// File-system operations traced by internal/minixfs.
const (
	FSOpCreate FSOp = iota + 1
	FSOpMkdir
	FSOpRemove
	FSOpRmdir
	FSOpLink
	FSOpRename
	FSOpTruncate
	FSOpWrite
)

// String implements fmt.Stringer.
func (op FSOp) String() string {
	switch op {
	case FSOpCreate:
		return "create"
	case FSOpMkdir:
		return "mkdir"
	case FSOpRemove:
		return "remove"
	case FSOpRmdir:
		return "rmdir"
	case FSOpLink:
		return "link"
	case FSOpRename:
		return "rename"
	case FSOpTruncate:
		return "truncate"
	case FSOpWrite:
		return "write"
	default:
		return fmt.Sprintf("fsop(%d)", uint32(op))
	}
}

// HistID names one of the tracer's histograms. Every one but
// HistCommitBatch holds the durations of one span kind (the kinds
// table in span.go).
type HistID int

// The tracer's histogram set.
const (
	// HistRead: latency of one successful LLD Read.
	HistRead HistID = iota
	// HistWrite: latency of one successful LLD Write.
	HistWrite
	// HistCommitDurable: EndARU-to-durable — from the moment EndARU
	// queued the commit record until the device sync that made it
	// stable.
	HistCommitDurable
	// HistSegFlush: writing one sealed chunk to the device.
	HistSegFlush
	// HistRecovery: one full crash recovery (Open).
	HistRecovery
	// HistCheckpoint: writing one full checkpoint base (a compaction
	// or the first record of a chain).
	HistCheckpoint
	// HistCleanerPass: one cleaner invocation.
	HistCleanerPass
	// HistGroupCommitWait: time one Flush caller spent in the
	// group-commit broker, from enqueue until its batch's sync
	// completed (includes leading the batch, for the leader).
	HistGroupCommitWait
	// HistCommitBatch: group-commit batch sizes. Not a latency: each
	// sample is the number of commit records one batch made durable,
	// encoded as that many nanoseconds (Quantile/Mean then read
	// directly as commits-per-batch); /metrics exports it unscaled.
	HistCommitBatch
	// HistPrepare: one participant's prepare phase of a cross-shard
	// ARU — its PrepareARU plus the flush that makes the prepare
	// record durable.
	HistPrepare
	// HistCoordCommit: appending and syncing one coordinator commit
	// record (the 2PC commit point).
	HistCoordCommit
	// HistCkptDelta: appending one incremental checkpoint delta record.
	HistCkptDelta
	// HistRecoveryScan: recovery's summary scan — reading, decoding and
	// replaying every replay-window segment.
	HistRecoveryScan

	numHists
)

// histName maps HistID to the exposition name (snake_case, unitless;
// the Prometheus layer appends "_seconds" to the latencies).
var histName = [numHists]string{
	HistRead:            "read",
	HistWrite:           "write",
	HistCommitDurable:   "commit_durable",
	HistSegFlush:        "segment_flush",
	HistRecovery:        "recovery",
	HistCheckpoint:      "checkpoint",
	HistCleanerPass:     "cleaner_pass",
	HistGroupCommitWait: "group_commit_wait",
	HistCommitBatch:     "commit_batch",
	HistPrepare:         "twopc_prepare",
	HistCoordCommit:     "coord_commit",
	HistCkptDelta:       "checkpoint_delta",
	HistRecoveryScan:    "recovery_scan",
}

// String implements fmt.Stringer.
func (h HistID) String() string {
	if h >= 0 && h < numHists {
		return histName[h]
	}
	return fmt.Sprintf("hist(%d)", int(h))
}

// Config configures a Tracer.
type Config struct {
	// RingSize is the span-ring capacity, rounded up to a power of two
	// (default 8192; negative keeps the histograms only — nothing is
	// recorded, and SpanContexts stay zero so no trace context crosses
	// the wire).
	RingSize int
	// Deprecated: SpanRingSize is ignored; RingSize sizes the one ring.
	SpanRingSize int
}

// Tracer is one observability sink: the span ring and the histograms. A
// single Tracer may be shared by several engine instances (e.g. across
// crash/recover generations); all methods are safe for concurrent use
// and a nil *Tracer is a valid no-op sink.
type Tracer struct {
	start time.Time
	ring  *ring         // nil: histograms only
	ids   atomic.Uint64 // span/trace id source (span.go)
	hists [numHists]Histogram
}

// New creates a Tracer.
func New(cfg Config) *Tracer {
	t := &Tracer{start: time.Now()}
	if cfg.RingSize >= 0 {
		n := cfg.RingSize
		if n == 0 {
			n = 8192
		}
		t.ring = newRing(n)
	}
	t.ids.Store(newIDBase())
	return t
}

// Now returns the current monotonic time relative to the tracer's
// creation — the timebase of Span.Start and of StartAt/EndAt.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// Observe records one sample directly, for a histogram no span covers
// (HistCommitBatch). Safe on a nil tracer (no-op).
func (t *Tracer) Observe(h HistID, d time.Duration) {
	if t == nil {
		return
	}
	t.hists[h].Observe(d)
}

// Histogram returns a snapshot of one histogram.
func (t *Tracer) Histogram(h HistID) HistSnapshot {
	if t == nil || h < 0 || h >= numHists {
		return HistSnapshot{Name: h.String()}
	}
	return t.hists[h].Snapshot(h.String())
}

// Histograms returns snapshots of every histogram, in HistID order.
func (t *Tracer) Histograms() []HistSnapshot {
	if t == nil {
		return nil
	}
	return t.HistogramsInto(nil)
}

// HistogramsInto is Histograms reusing the caller's slice (and each
// element's bucket backing) so a periodic scraper allocates nothing in
// the steady state. The returned slice has exactly numHists elements.
func (t *Tracer) HistogramsInto(out []HistSnapshot) []HistSnapshot {
	if t == nil {
		return nil
	}
	if cap(out) < int(numHists) {
		out = make([]HistSnapshot, numHists)
	} else {
		out = out[:numHists]
	}
	for h := HistID(0); h < numHists; h++ {
		t.hists[h].SnapshotInto(h.String(), &out[h])
	}
	return out
}
