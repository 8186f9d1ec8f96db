package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// The span is the tracer's one record. It carries a trace identifier
// shared by every span of one logical request (propagated across the
// ldnet wire), its own identifier and its parent's, so a single durable
// commit can be followed from the client RPC through the server
// dispatch, the engine commit, the group-commit batch it rode, and the
// device sync that made it durable (DESIGN.md §8, §13). An instant —
// an ARU opened, an epoch published — is a span of zero duration.
//
// A site times itself with one Start/End pair: Start reads the clock
// and, with the ring on, mints the span's id; End reads the clock,
// observes the kind's histogram (whether or not the ring is on) and
// records the span. Neither allocates or locks, and on a nil tracer
// each costs a single nil-check.

// SpanKind discriminates spans; ARU, Arg1 and Arg2 are kind-specific.
type SpanKind uint8

// Span kinds.
const (
	// SpanClientRPC: one client-side RPC, from send to completion.
	// ARU = the ARU named by the request (0 = none/simple), Arg1 =
	// opcode, Arg2 = 1 if the call failed.
	SpanClientRPC SpanKind = iota + 1
	// SpanServerOp: one server-side dispatch of a request that carried
	// trace context. ARU = the ARU named, Arg1 = opcode, Arg2 = wire
	// status (0 = OK).
	SpanServerOp
	// SpanEngineCommit: one successful EndARU or CommitPrepared. ARU =
	// the committed unit, Arg1 = list operations replayed.
	SpanEngineCommit
	// SpanEngineFlush: one Flush — the caller's wait on the group-commit
	// broker (or the serial sync). Arg2 = 1 if it failed.
	SpanEngineFlush
	// SpanCommitDurable: the durability ack of one committed unit —
	// from EndARU queueing the commit record until the covering device
	// sync completed (parent = the engine commit). ARU = the unit, Arg1
	// = the group-commit batch that made it durable (0 = a locked
	// flush), Arg2 = the device sync: every durable ack names its sync.
	SpanCommitDurable
	// SpanCommitBatch: one group-commit batch, from leader election to
	// completion (root of its own trace). Arg1 = batch id, Arg2 =
	// commit records made durable.
	SpanCommitBatch
	// SpanDeviceSync: the device sync of one batch (parent = the batch
	// span). Arg1 = sync id.
	SpanDeviceSync
	// SpanSegFlush: one sealed chunk written (parent = the batch span,
	// if a batch leader wrote it). Arg1 = segment index, Arg2 = log seq.
	SpanSegFlush
	// SpanRecovery: one full crash recovery. Arg1 = entries replayed,
	// Arg2 = ARUs recovered.
	SpanRecovery
	// SpanRecoverySeg: replay of one segment during recovery (parent =
	// the recovery span). Arg1 = segment index, Arg2 = entries.
	SpanRecoverySeg
	// Span2PC: one cross-shard ARU commit, from the first participant
	// prepare until every participant applied the decision (parent =
	// the caller's context, e.g. the server op span). ARU = the
	// external unit id, Arg1 = coordinator txn, Arg2 = participants.
	Span2PC
	// SpanEnginePrepare: one PrepareARU on a participant shard (parent
	// = the participant's twopc-prepare span). ARU = the shard-local
	// unit, Arg1 = coordinator txn, Arg2 = list operations pre-logged.
	SpanEnginePrepare
	// SpanCoordCommit: appending + syncing the coordinator commit
	// record — the 2PC commit point (parent = the 2PC span). ARU = the
	// external unit, Arg1 = coordinator txn, Arg2 = participants.
	SpanCoordCommit
	// SpanRecoveryScan: the summary-scan phase of one recovery
	// (parent = the recovery span). Arg1 = segments in the replay
	// window, Arg2 = segments replayed.
	SpanRecoveryScan
	// SpanRecoveryCkptLoad: the first phase of one recovery — the
	// checkpoint chain read and folded into the tables (parent = the
	// recovery span). Arg1 = chain depth, Arg2 = blocks in the tables.
	SpanRecoveryCkptLoad
	// SpanRecoverySweep: the last phase of one recovery — in-doubt
	// resolution, segment accounting, leak sweep and first publish
	// (parent = the recovery span). Arg1 = leaked blocks freed, Arg2 =
	// in-doubt units.
	SpanRecoverySweep
	// SpanARUBegin (instant): an ARU was opened. ARU = its id.
	SpanARUBegin
	// SpanARUAbort (instant): an ARU was aborted. ARU = its id.
	SpanARUAbort
	// SpanRead: one successful block read. ARU = issuing ARU (0 =
	// simple), Arg1 = block id.
	SpanRead
	// SpanWrite: one successful block write. ARU = issuing ARU, Arg1 =
	// block id.
	SpanWrite
	// SpanCheckpoint: one checkpoint written as a full base, including
	// the log drain before it. Arg1 = checkpoint timestamp (0: the
	// record failed), Arg2 = the chain depth it compacted (0 for a
	// chain's first record).
	SpanCheckpoint
	// SpanCkptDelta: one checkpoint appended as an incremental delta,
	// including the log drain before it. Arg1 = checkpoint timestamp
	// (0: the record failed), Arg2 = chain depth after the append.
	SpanCkptDelta
	// SpanCleanerPass: one cleaner invocation. Arg1 = segments
	// reclaimed.
	SpanCleanerPass
	// SpanEpochPublish (instant): the engine published a new MVCC read
	// epoch. Arg1 = epoch number, Arg2 = block-map size at publish.
	SpanEpochPublish
	// SpanSnapPurge (instant): one retired epoch's refcount drained
	// and its retire-set was recycled. Arg1 = the purged epoch number.
	SpanSnapPurge
	// SpanFSOp: one public file-system operation, enclosing the ARUs it
	// issues. Arg1 = FSOp code.
	SpanFSOp
	// Span2PCPrepare: one participant's prepare phase — its PrepareARU
	// and the flush that makes the prepare record durable (parent = the
	// 2PC span). ARU = the external unit, Arg1 = coordinator txn, Arg2
	// = shard index.
	Span2PCPrepare

	numSpanKinds
)

// noHist marks a span kind whose durations feed no histogram.
const noHist HistID = -1

// kinds is the one table of span kinds: each kind's name and the
// histogram its durations feed. A kind with noHist is only recorded,
// so with the ring off it costs nothing past a nil-check.
var kinds = [numSpanKinds]struct {
	name string
	hist HistID
}{
	0:                    {"", noHist},
	SpanClientRPC:        {"client-rpc", noHist},
	SpanServerOp:         {"server-op", noHist},
	SpanEngineCommit:     {"engine-commit", noHist},
	SpanEngineFlush:      {"engine-flush", HistGroupCommitWait},
	SpanCommitDurable:    {"commit-durable", HistCommitDurable},
	SpanCommitBatch:      {"commit-batch", noHist},
	SpanDeviceSync:       {"device-sync", noHist},
	SpanSegFlush:         {"seg-flush", HistSegFlush},
	SpanRecovery:         {"recovery", HistRecovery},
	SpanRecoverySeg:      {"recovery-seg", noHist},
	Span2PC:              {"twopc-commit", noHist},
	SpanEnginePrepare:    {"engine-prepare", noHist},
	SpanCoordCommit:      {"coord-commit", HistCoordCommit},
	SpanRecoveryScan:     {"recovery-scan", HistRecoveryScan},
	SpanRecoveryCkptLoad: {"recovery-ckpt-load", noHist},
	SpanRecoverySweep:    {"recovery-sweep", noHist},
	SpanARUBegin:         {"aru-begin", noHist},
	SpanARUAbort:         {"aru-abort", noHist},
	SpanRead:             {"read", HistRead},
	SpanWrite:            {"write", HistWrite},
	SpanCheckpoint:       {"checkpoint", HistCheckpoint},
	SpanCkptDelta:        {"checkpoint-delta", HistCkptDelta},
	SpanCleanerPass:      {"cleaner-pass", HistCleanerPass},
	SpanEpochPublish:     {"epoch-publish", noHist},
	SpanSnapPurge:        {"snap-purge", noHist},
	SpanFSOp:             {"fs-op", noHist},
	Span2PCPrepare:       {"twopc-prepare", HistPrepare},
}

// String implements fmt.Stringer.
func (k SpanKind) String() string {
	if k > 0 && k < numSpanKinds {
		return kinds[k].name
	}
	return fmt.Sprintf("span(%d)", uint8(k))
}

// SpanContext is the propagated part of a span: the trace it belongs
// to and the span that will parent whatever the receiver does on its
// behalf. The zero value means "untraced"; it travels by value and is
// what the ldnet wire extension carries.
type SpanContext struct {
	Trace uint64
	Span  uint64
}

// Traced reports whether the context carries a live trace.
func (sc SpanContext) Traced() bool { return sc.Trace != 0 }

// Span is one recorded span, drained from the ring.
type Span struct {
	// Seq is the global emission ticket (total order; a gap means the
	// ring wrapped over the missing spans).
	Seq uint64 `json:"seq"`
	// Trace groups every span of one logical request.
	Trace uint64 `json:"trace"`
	// ID identifies this span; Parent is the span it ran on behalf of
	// (0 = root).
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Kind discriminates the span; ARU, Arg1, Arg2 are kind-specific.
	Kind SpanKind `json:"kind"`
	// Start is the span's begin time on the emitting tracer's
	// timebase (Tracer.Now); Dur is its length (0 for an instant).
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
	ARU   uint64        `json:"aru,omitempty"`
	Arg1  uint64        `json:"arg1,omitempty"`
	Arg2  uint64        `json:"arg2,omitempty"`
}

// String renders the span for timelines and debugging.
func (s Span) String() string {
	return fmt.Sprintf("%-14s trace=%-8x id=%-8x parent=%-8x t=%-12s dur=%-10s aru=%-4d arg1=%-6d arg2=%d",
		s.Kind, s.Trace, s.ID, s.Parent, s.Start, s.Dur, s.ARU, s.Arg1, s.Arg2)
}

// ring is the fixed-size, lock-free, multi-producer span buffer. A
// writer claims a slot with one atomic ticket increment and fills it
// with atomic stores; when the ring is full the oldest spans are
// overwritten. Readers (snapshot) never block writers.
//
// Each slot carries a sequence word encoding both the ticket of the
// span it holds and a write-in-progress bit:
//
//	seq == 0            slot never written
//	seq == 2*ticket+1   writer for ticket is mid-flight
//	seq == 2*ticket     span for ticket is complete
//
// A reader loads seq, copies the payload, and re-loads seq: any
// concurrent overwrite changes seq, so a torn copy is detected and
// dropped. The one unguarded window is a writer stalled long enough
// for the ring to wrap back onto the slot it is still filling — then
// a payload can mix two spans under the newer ticket. For a diagnostic
// trace that bounded imprecision is an accepted cost of staying
// lock-free; a Seq gap in the drained timeline flags that the ring
// wrapped.
type ring struct {
	mask  uint64
	next  atomic.Uint64 // ticket source; first ticket is 1
	slots []slot
}

type slot struct {
	seq    atomic.Uint64
	trace  atomic.Uint64
	id     atomic.Uint64
	parent atomic.Uint64
	kind   atomic.Uint32
	start  atomic.Int64
	dur    atomic.Int64
	aru    atomic.Uint64
	arg1   atomic.Uint64
	arg2   atomic.Uint64
}

// newRing returns a ring of at least n slots (rounded up to a power of
// two, minimum 16).
func newRing(n int) *ring {
	if n < 16 {
		n = 16
	}
	size := 1 << bits.Len(uint(n-1)) // next power of two ≥ n
	return &ring{mask: uint64(size - 1), slots: make([]slot, size)}
}

// record stores one span (its Seq is the ticket).
func (r *ring) record(s *Span) {
	ticket := r.next.Add(1)
	sl := &r.slots[(ticket-1)&r.mask]
	sl.seq.Store(2*ticket + 1) // mark mid-flight: readers skip
	sl.trace.Store(s.Trace)
	sl.id.Store(s.ID)
	sl.parent.Store(s.Parent)
	sl.kind.Store(uint32(s.Kind))
	sl.start.Store(int64(s.Start))
	sl.dur.Store(int64(s.Dur))
	sl.aru.Store(s.ARU)
	sl.arg1.Store(s.Arg1)
	sl.arg2.Store(s.Arg2)
	sl.seq.Store(2 * ticket) // publish
}

// dropped returns how many spans the ring has overwritten: every
// ticket beyond the capacity evicted the span capacity slots behind
// it. Torn snapshot copies are not counted — they are transient (the
// span reappears complete in the next snapshot), whereas ticket
// overrun is permanent loss.
func (r *ring) dropped() uint64 {
	n := r.next.Load()
	if size := uint64(len(r.slots)); n > size {
		return n - size
	}
	return 0
}

// snapshot drains a consistent copy of every complete span, ordered by
// ticket.
func (r *ring) snapshot() []Span {
	out := make([]Span, 0, len(r.slots))
	for i := range r.slots {
		sl := &r.slots[i]
		v := sl.seq.Load()
		if v == 0 || v&1 == 1 {
			continue // never written, or a writer is mid-flight
		}
		s := Span{
			Trace:  sl.trace.Load(),
			ID:     sl.id.Load(),
			Parent: sl.parent.Load(),
			Kind:   SpanKind(sl.kind.Load()),
			Start:  time.Duration(sl.start.Load()),
			Dur:    time.Duration(sl.dur.Load()),
			ARU:    sl.aru.Load(),
			Arg1:   sl.arg1.Load(),
			Arg2:   sl.arg2.Load(),
		}
		if sl.seq.Load() != v {
			continue // overwritten while copying: drop the torn span
		}
		s.Seq = v / 2
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// idSalt decorrelates the identifier streams of tracers created in the
// same nanosecond (e.g. a client and a server tracer in one test
// process): each tracer folds a distinct salt into its seed.
var idSalt atomic.Uint64

// newIDBase seeds a tracer's span/trace identifier counter. The high
// bits come from the wall clock so two *processes* (an ldnet client
// and its server) hand out disjoint identifiers, which keeps a trace
// that spans both sides free of collisions without any coordination.
func newIDBase() uint64 {
	return (uint64(time.Now().UnixNano()) << 16) ^ (idSalt.Add(1) << 4)
}

// Active is a span in flight: Start returns it by value, End records
// it. It is a plain value — kept in a local, a pending call or a commit
// stamp, never allocated — and the zero Active ends for free.
type Active struct {
	t      *Tracer
	start  time.Duration
	ctx    SpanContext // this span's trace and id; zero with the ring off
	parent uint64
	kind   SpanKind
}

// Start opens a span of the given kind on behalf of parent. With the
// ring on it mints the span's id and joins parent's trace, or opens a
// new trace (whose id is the span's own) when parent is untraced. On a
// nil tracer, or with the ring off for a kind that feeds no histogram,
// it returns the zero Active without reading the clock.
func (t *Tracer) Start(kind SpanKind, parent SpanContext) Active {
	if t == nil {
		return Active{}
	}
	return t.open(kind, parent)
}

// open is Start past the nil-check, out of line so that Start inlines.
func (t *Tracer) open(kind SpanKind, parent SpanContext) Active {
	if t.ring == nil && kinds[kind].hist == noHist {
		return Active{}
	}
	return t.StartAt(kind, parent, t.Now())
}

// StartAt is Start at a given time on the tracer's timebase (Now), for
// a site that keeps its own clock on that timebase (recovery's report).
func (t *Tracer) StartAt(kind SpanKind, parent SpanContext, at time.Duration) Active {
	if t == nil {
		return Active{}
	}
	a := Active{t: t, start: at, kind: kind}
	if t.ring != nil {
		id := t.ids.Add(1)
		a.ctx = SpanContext{Trace: parent.Trace, Span: id}
		if a.ctx.Trace == 0 {
			a.ctx.Trace = id
		}
		a.parent = parent.Span
	}
	return a
}

// Ctx is the context work done on this span's behalf parents on; zero
// when nothing is recorded.
func (a Active) Ctx() SpanContext { return a.ctx }

// As re-kinds the span before it ends, for a site that learns what it
// was doing only on the way out (a checkpoint delta that had to
// compact into a base). Both kinds must feed a histogram.
func (a Active) As(kind SpanKind) Active {
	a.kind = kind
	return a
}

// End completes the span now: it observes the kind's histogram and,
// with the ring on, records the span.
func (a Active) End(aru, arg1, arg2 uint64) {
	if a.t != nil {
		a.end(aru, arg1, arg2)
	}
}

// end is End past the nil-check, out of line so that End inlines.
func (a Active) end(aru, arg1, arg2 uint64) { a.EndAt(a.t.Now(), aru, arg1, arg2) }

// EndAt is End at a given time on the tracer's timebase — one clock
// read shared by the spans one event completes (a sync's durable acks)
// or by a report (recovery's phases).
func (a Active) EndAt(at time.Duration, aru, arg1, arg2 uint64) {
	t := a.t
	if t == nil {
		return
	}
	if h := kinds[a.kind].hist; h != noHist {
		t.hists[h].Observe(at - a.start)
	}
	if t.ring != nil {
		t.ring.record(&Span{Trace: a.ctx.Trace, ID: a.ctx.Span, Parent: a.parent,
			Kind: a.kind, Start: a.start, Dur: at - a.start, ARU: aru, Arg1: arg1, Arg2: arg2})
	}
}

// Instant records a zero-duration span of the given kind. It carries no
// trace or id: nothing runs on an instant's behalf. A no-op on a nil
// tracer or with the ring off.
func (t *Tracer) Instant(kind SpanKind, aru, arg1, arg2 uint64) {
	if t != nil && t.ring != nil {
		t.ring.record(&Span{Kind: kind, Start: t.Now(), ARU: aru, Arg1: arg1, Arg2: arg2})
	}
}

// SpanEnabled reports whether the tracer records spans (the ring is
// on).
func (t *Tracer) SpanEnabled() bool { return t != nil && t.ring != nil }

// Spans returns a snapshot of the spans currently in the ring, ordered
// by Seq (oldest surviving first).
func (t *Tracer) Spans() []Span {
	if t == nil || t.ring == nil {
		return nil
	}
	return t.ring.snapshot()
}

// SpansDropped returns how many spans the ring has overwritten since
// the tracer was created — the trace-loss counter exported on
// /metrics.
func (t *Tracer) SpansDropped() uint64 {
	if t == nil || t.ring == nil {
		return 0
	}
	return t.ring.dropped()
}
