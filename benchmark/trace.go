package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// The traced run records a span at each boundary the benchmark can
// reach from outside the engine:
//
//	client op → (ldnet RPC phase → backend call) → LD / FS call → device call
//
// Every span also feeds a per-kind accumulator (count, total time), so
// the mean-per-call metrics cover every call while the span buffer may
// hold only one op in N.

type spanKind uint8

const (
	kOp spanKind = iota // one workload op, as the client sees it
	// LD call sites (layer core, or shard on shard_2pc).
	kBegin
	kWrite
	kNewBlock
	kDelete
	kEnd
	kCommitDurable
	kRead
	kFlush
	kAbort
	kCheckpoint
	kOpen
	// Device calls (layer disk).
	kDevRead
	kDevWrite
	kDevSync
	// Client-side RPC phases (layer ldnet).
	kRPCBegin
	kRPCWrite
	kRPCEnd
	kRPCRead
	// File-system calls (layer minixfs).
	kFSCreate
	kFSWrite
	kFSOpenRead
	kFSRemove
	kFSSync
	numKinds
)

var kindNames = [numKinds]string{
	kOp: "op", kBegin: "BeginARU", kWrite: "Write", kNewBlock: "NewBlock",
	kDelete: "DeleteBlock", kEnd: "EndARU", kCommitDurable: "CommitDurable",
	kRead: "Read", kFlush: "Flush", kAbort: "AbortARU", kCheckpoint: "Checkpoint",
	kOpen: "OpenReport", kDevRead: "dev.ReadAt", kDevWrite: "dev.WriteAt",
	kDevSync: "dev.Sync", kRPCBegin: "rpc.BeginARU", kRPCWrite: "rpc.Write×3",
	kRPCEnd: "rpc.EndARU", kRPCRead: "rpc.Read", kFSCreate: "fs.Create",
	kFSWrite: "fs.WriteAt", kFSOpenRead: "fs.Open+ReadAll", kFSRemove: "fs.Remove",
	kFSSync: "fs.Sync",
}

// Layers, named after the modules under internal/.
const (
	layerClient = "client"
	layerCore   = "core"
	layerShard  = "shard"
	layerDisk   = "disk"
	layerNet    = "ldnet"
	layerFS     = "minixfs"
)

// spanCap bounds the span buffer (and so the trace file); above it the
// tracer samples one op in N, chosen after warm-up from the measured
// spans per op.
const spanCap = 1 << 18

type span struct {
	start, end int64 // ns since tracer start
	id, parent uint32
	op         uint32 // index of the client op this span belongs to, +1
	kind       spanKind
	lane       uint8 // client index, or device lane for device spans
}

// opCtx is one client's position in the span tree. It is used only on
// that client's goroutine.
type opCtx struct {
	tr     *tracer
	client uint8
	op     uint32 // current op index + 1 when the op is sampled, else 0
	cur    uint32 // innermost open span of this client
}

type scope struct {
	t0         int64
	id, parent uint32
	op         uint32
	kind       spanKind
	lane       uint8
}

type tracer struct {
	t0 time.Time
	// ldLayer is the layer LD call spans belong to on this workload.
	ldLayer string
	// single is set on single-client workloads: then at most one op is
	// in flight, open names its innermost open span, and work done on
	// other goroutines (server session, device calls) hangs under it.
	single bool
	open   atomic.Uint32
	openOp atomic.Uint32

	sampleEvery atomic.Int64 // 0 = record nothing (warm-up)
	sharedTick  atomic.Int64

	ids     atomic.Uint32
	next    atomic.Int64
	dropped atomic.Int64
	spans   []span

	acc [numKinds]struct{ n, ns atomic.Int64 }
}

func newTracer(ldLayer string, single bool) *tracer {
	return &tracer{t0: time.Now(), ldLayer: ldLayer, single: single, spans: make([]span, spanCap)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) layerOf(k spanKind) string {
	switch {
	case k == kOp:
		return layerClient
	case k <= kOpen:
		return t.ldLayer
	case k <= kDevSync:
		return layerDisk
	case k <= kRPCRead:
		return layerNet
	default:
		return layerFS
	}
}

// resetAcc zeroes the accumulators; called between warm-up and the
// measured region while no client runs.
func (t *tracer) resetAcc() {
	for i := range t.acc {
		t.acc[i].n.Store(0)
		t.acc[i].ns.Store(0)
	}
}

// accSpans returns how many device spans and how many other spans the
// accumulators have seen.
func (t *tracer) accSpans() (dev, other int64) {
	for k := range t.acc {
		if n := t.acc[k].n.Load(); t.layerOf(spanKind(k)) == layerDisk {
			dev += n
		} else {
			other += n
		}
	}
	return dev, other
}

func (t *tracer) meanUs(k spanKind) (float64, bool) {
	n := t.acc[k].n.Load()
	if n == 0 {
		return 0, false
	}
	return float64(t.acc[k].ns.Load()) / float64(n) / 1e3, true
}

func (t *tracer) record(s scope, end int64) {
	t.acc[s.kind].n.Add(1)
	t.acc[s.kind].ns.Add(end - s.t0)
	if s.id == 0 {
		return
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{start: s.t0, end: end, id: s.id, parent: s.parent, op: s.op, kind: s.kind, lane: s.lane}
}

// beginOp opens the client span of op i and decides whether the op is
// sampled: one in sampleEvery, chosen by a hash of the index so that
// the sample does not fall in step with a workload's own period (every
// third op a create, every 256th a flush).
func (c *opCtx) beginOp(i int, t0 int64) scope {
	s := scope{t0: t0, kind: kOp, lane: c.client}
	if n := c.tr.sampleEvery.Load(); n > 0 && (uint64(i)*0x9e3779b97f4a7c15>>33)%uint64(n) == 0 {
		s.id = c.tr.ids.Add(1)
		s.op = uint32(i) + 1
		c.op, c.cur = s.op, s.id
		if c.tr.single {
			c.tr.openOp.Store(s.op)
			c.tr.open.Store(s.id)
		}
	}
	return s
}

func (c *opCtx) endOp(s scope, end int64) {
	if s.id != 0 {
		c.op, c.cur = 0, 0
		if c.tr.single {
			c.tr.open.Store(0)
			c.tr.openOp.Store(0)
		}
	}
	c.tr.record(s, end)
}

// enter opens a span on the client's own goroutine, under the client's
// innermost open span. A nil opCtx (an untraced run) records nothing, so
// call sites need no branch of their own.
func (c *opCtx) enter(k spanKind) scope {
	if c == nil {
		return scope{}
	}
	s := scope{t0: c.tr.now(), kind: k, lane: c.client}
	if c.op != 0 {
		s.id, s.parent, s.op = c.tr.ids.Add(1), c.cur, c.op
		c.cur = s.id
		if c.tr.single {
			c.tr.open.Store(s.id)
		}
	}
	return s
}

func (c *opCtx) exit(s scope) {
	if c == nil {
		return
	}
	end := c.tr.now()
	if s.id != 0 {
		c.cur = s.parent
		if c.tr.single {
			c.tr.open.Store(s.parent)
		}
	}
	c.tr.record(s, end)
}

// enterShared opens a span on a goroutine that is not a client's: a
// server session or a device call. On a single-client workload it
// hangs under the op in flight; with several clients the work may
// serve any of them (a group-commit leader writes for the whole
// batch), so the span is a root and is sampled on its own count.
// A non-leaf span becomes the parent of shared spans opened inside it.
func (t *tracer) enterShared(k spanKind, lane uint8, leaf bool) scope {
	s := scope{t0: t.now(), kind: k, lane: lane}
	if t.single {
		if p := t.open.Load(); p != 0 {
			s.id, s.parent, s.op = t.ids.Add(1), p, t.openOp.Load()
			if !leaf {
				t.open.Store(s.id)
			}
		}
	} else if n := t.sampleEvery.Load(); n > 0 && t.sharedTick.Add(1)%n == 0 {
		s.id = t.ids.Add(1)
	}
	return s
}

// exitShared closes s and returns its end time.
func (t *tracer) exitShared(s scope, leaf bool) int64 {
	end := t.now()
	if s.id != 0 && !leaf && t.single {
		t.open.Store(s.parent)
	}
	t.record(s, end)
	return end
}

func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// selfTimes returns, per layer, the summed self time of the recorded
// spans — a span's duration minus the part of it its children cover —
// and the number and summed duration of the sampled client ops. Siblings
// that overlap (device
// calls issued in parallel by shard fan-out or recovery workers) share
// the wall time they cover between them in proportion to their
// durations, so that the layers of one op add up to the op. Spans whose
// parent was dropped count as roots.
func (t *tracer) selfTimes() (self map[string]int64, ops, opNs int64) {
	spans := t.recorded()
	order := make([]int32, len(spans))
	byID := make(map[uint32]int32, len(spans))
	for i := range spans {
		order[i] = int32(i)
		byID[spans[i].id] = int32(i)
	}
	// Children grouped by parent, by start time within a group.
	sort.Slice(order, func(a, b int) bool {
		x, y := &spans[order[a]], &spans[order[b]]
		if x.parent != y.parent {
			return x.parent < y.parent
		}
		return x.start < y.start
	})
	covered := make([]int64, len(spans)) // by span index: wall time its children cover
	share := make([]float64, len(spans)) // by span index: 1, or less among overlapping siblings
	for i := range share {
		share[i] = 1
	}
	for i := 0; i < len(order); {
		parent := spans[order[i]].parent
		j := i
		for j < len(order) && spans[order[j]].parent == parent {
			j++
		}
		if pi, ok := byID[parent]; ok && parent != 0 {
			p := &spans[pi]
			var union, total int64
			hi := p.start
			for _, ci := range order[i:j] {
				c := &spans[ci]
				total += c.end - c.start
				lo, end := c.start, c.end
				if lo < hi {
					lo = hi
				}
				if end > p.end {
					end = p.end
				}
				if end > lo {
					union += end - lo
					hi = end
				}
			}
			covered[pi] = union
			if total > union {
				for _, ci := range order[i:j] {
					share[ci] = float64(union) / float64(total)
				}
			}
		}
		i = j
	}
	self = make(map[string]int64)
	for i := range spans {
		s := &spans[i]
		if s.parent == 0 && s.kind != kOp {
			// A device call on a multi-client workload: it serves no one
			// op and is sampled on its own count, so it has no per-op share.
			continue
		}
		self[t.layerOf(s.kind)] += int64(float64(s.end-s.start-covered[i]) * share[i])
		if s.kind == kOp {
			ops++
			opNs += s.end - s.start
		}
	}
	return self, ops, opNs
}

// writeChromeTrace writes the recorded spans as Chrome trace-event
// JSON (complete events), which Perfetto and chrome://tracing load.
// Lanes: one thread per client, one per device, one for the server.
func (t *tracer) writeChromeTrace(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"displayTimeUnit":"ns","otherData":{"workload":%q,"dropped":%d},"traceEvents":[`+"\n", workload, t.dropped.Load())
	for i, s := range t.recorded() {
		if i > 0 {
			w.WriteString(",\n")
		}
		fmt.Fprintf(w, `{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"op":%d}}`,
			kindNames[s.kind], t.layerOf(s.kind), s.lane, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent, s.op)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
