package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// Spans are the causal layer of the tracer: where events answer "what
// happened", spans answer "on behalf of whom, and what made it
// durable". A span carries a trace identifier shared by every span of
// one logical request (propagated across the ldnet wire), its own span
// identifier, and the identifier of its parent, so a single durable
// commit can be followed from the client RPC through the server
// dispatch, the engine commit, the group-commit batch it rode, and the
// device sync that made it durable (DESIGN.md §13).
//
// Recording a completed span is one atomic ticket increment plus a
// handful of atomic stores — no locks, no allocations — and a nil or
// span-disabled tracer costs a single nil-check, exactly like the
// event ring.

// SpanKind discriminates spans; Arg1/Arg2 are kind-specific.
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
	// SpanEngineCommit: one EndARU executed with trace context. ARU =
	// the committed unit, Arg1 = list operations replayed.
	SpanEngineCommit
	// SpanEngineFlush: one Flush executed with trace context — the
	// caller's wait on the group-commit broker (or the serial sync).
	SpanEngineFlush
	// SpanCommitDurable: the durability ack of one committed unit —
	// from EndARU queueing the commit record until the covering device
	// sync completed. ARU = the unit, Arg1 = the group-commit batch
	// that made it durable (0 = serial path), Arg2 = the device sync.
	// This span is the batch-causality invariant made visible: every
	// durable ack names its sync.
	SpanCommitDurable
	// SpanCommitBatch: one group-commit batch, from leader election to
	// completion. Arg1 = batch id, Arg2 = commit records made durable.
	SpanCommitBatch
	// SpanDeviceSync: the device sync of one batch (parent = the batch
	// span). Arg1 = sync id.
	SpanDeviceSync
	// SpanSegFlush: one sealed segment written by a batch leader
	// (parent = the batch span). Arg1 = segment index, Arg2 = log seq.
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
	// = the 2PC span). ARU = the shard-local unit, Arg1 = coordinator
	// txn, Arg2 = list operations pre-logged.
	SpanEnginePrepare
	// SpanCoordCommit: appending + syncing the coordinator commit
	// record — the 2PC commit point (parent = the 2PC span). Arg1 =
	// coordinator txn.
	SpanCoordCommit
	// SpanRecoveryScan: the parallel summary-scan phase of one
	// recovery (parent = the recovery span). Arg1 = worker count,
	// Arg2 = segments in the replay window.
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
)

// String implements fmt.Stringer.
func (k SpanKind) String() string {
	switch k {
	case SpanClientRPC:
		return "client-rpc"
	case SpanServerOp:
		return "server-op"
	case SpanEngineCommit:
		return "engine-commit"
	case SpanEngineFlush:
		return "engine-flush"
	case SpanCommitDurable:
		return "commit-durable"
	case SpanCommitBatch:
		return "commit-batch"
	case SpanDeviceSync:
		return "device-sync"
	case SpanSegFlush:
		return "seg-flush"
	case SpanRecovery:
		return "recovery"
	case SpanRecoverySeg:
		return "recovery-seg"
	case Span2PC:
		return "twopc-commit"
	case SpanEnginePrepare:
		return "engine-prepare"
	case SpanCoordCommit:
		return "coord-commit"
	case SpanRecoveryScan:
		return "recovery-scan"
	case SpanRecoveryCkptLoad:
		return "recovery-ckpt-load"
	case SpanRecoverySweep:
		return "recovery-sweep"
	default:
		return fmt.Sprintf("span(%d)", uint8(k))
	}
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

// Span is one completed span, drained from the span ring.
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
	// timebase (Tracer.Now); Dur is its length.
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

// spanRing is the fixed-size lock-free completed-span buffer. It uses
// the same per-slot sequence protocol as the event ring (see ring.go):
// writers claim a ticket, mark the slot mid-flight, fill it with
// atomic stores and publish; readers detect torn copies by re-loading
// the slot sequence.
type spanRing struct {
	mask  uint64
	next  atomic.Uint64
	slots []spanSlot
}

type spanSlot struct {
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

func newSpanRing(n int) *spanRing {
	if n < 16 {
		n = 16
	}
	size := 1 << bits.Len(uint(n-1))
	return &spanRing{mask: uint64(size - 1), slots: make([]spanSlot, size)}
}

func (r *spanRing) emit(s Span) {
	ticket := r.next.Add(1)
	sl := &r.slots[(ticket-1)&r.mask]
	sl.seq.Store(2*ticket + 1)
	sl.trace.Store(s.Trace)
	sl.id.Store(s.ID)
	sl.parent.Store(s.Parent)
	sl.kind.Store(uint32(s.Kind))
	sl.start.Store(int64(s.Start))
	sl.dur.Store(int64(s.Dur))
	sl.aru.Store(s.ARU)
	sl.arg1.Store(s.Arg1)
	sl.arg2.Store(s.Arg2)
	sl.seq.Store(2 * ticket)
}

// dropped returns how many spans the ring has overwritten: every
// ticket beyond the capacity evicted the span capacity slots behind
// it. Torn snapshot copies are transient (the span reappears complete
// in the next snapshot) and are not counted.
func (r *spanRing) dropped() uint64 {
	n := r.next.Load()
	if size := uint64(len(r.slots)); n > size {
		return n - size
	}
	return 0
}

func (r *spanRing) snapshot() []Span {
	out := make([]Span, 0, len(r.slots))
	for i := range r.slots {
		sl := &r.slots[i]
		v := sl.seq.Load()
		if v == 0 || v&1 == 1 {
			continue
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
			continue // overwritten while copying
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

// NextID returns a fresh span or trace identifier, unique within this
// tracer and — thanks to the time-seeded base — effectively unique
// across the processes of one deployment. Safe on a nil tracer (it
// returns 0, the untraced identifier).
func (t *Tracer) NextID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// SpanEnabled reports whether the tracer records spans.
func (t *Tracer) SpanEnabled() bool { return t != nil && t.spans != nil }

// EmitSpan records one completed span. Safe on a nil or span-disabled
// tracer (no-op). The caller fills Start/Dur from Now; Seq is assigned
// by the ring.
func (t *Tracer) EmitSpan(s Span) {
	if t == nil || t.spans == nil {
		return
	}
	t.spans.emit(s)
}

// Spans returns a snapshot of the spans currently in the ring, ordered
// by Seq (oldest surviving first).
func (t *Tracer) Spans() []Span {
	if t == nil || t.spans == nil {
		return nil
	}
	return t.spans.snapshot()
}

// SpansDropped returns how many spans the ring has overwritten since
// the tracer was created — the trace-loss counter exported on
// /metrics.
func (t *Tracer) SpansDropped() uint64 {
	if t == nil || t.spans == nil {
		return 0
	}
	return t.spans.dropped()
}

// EventsDropped is the event-ring counterpart of SpansDropped: events
// overwritten by ticket overrun since the tracer was created.
func (t *Tracer) EventsDropped() uint64 {
	if t == nil || t.ring == nil {
		return 0
	}
	return t.ring.dropped()
}
