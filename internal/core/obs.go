package core

import (
	"time"

	"aru/internal/obs"
)

// commitStamp remembers when EndARU queued one ARU's commit record —
// and under which trace — so the device sync that finally covers it
// can attribute the full EndARU-to-durable latency to that ARU and
// emit the commit-durable span that names the batch and sync
// (DESIGN.md §13: every durable ack names its sync).
type commitStamp struct {
	aru   ARUID
	t0    time.Duration // Tracer.Now at EndARU
	trace uint64        // trace of the committing request (0 = untraced)
	span  uint64        // engine-commit span: parent of the durable ack
}

// Tracer returns the observability sink attached via Params.Tracer,
// or nil when the instance runs uninstrumented. Embedding layers (the
// Minix file system, the transaction layer) use it to emit their own
// spans into the same timeline as the engine's events.
func (d *LLD) Tracer() *obs.Tracer { return d.obs }

// Metrics returns point-in-time snapshots of the latency histograms
// (read, write, commit-to-durable, segment flush, recovery,
// checkpoint, cleaner pass), or nil without a tracer. Like Stats, the
// snapshot never tears: each histogram cell is read atomically.
func (d *LLD) Metrics() []obs.HistSnapshot { return d.obs.Histograms() }

// TraceEvents returns the events currently held by the trace ring,
// oldest surviving first (the ring overwrites from the front when
// full), or nil without a tracer. Events are totally ordered by Seq.
func (d *LLD) TraceEvents() []obs.Event { return d.obs.Events() }

// LastBatch returns the id of the most recently completed group-commit
// batch (0 before the first batch). Maintained
// atomically so callers — e.g. the network server's slow-op log — can
// read it without taking the engine lock.
func (d *LLD) LastBatch() uint64 { return d.lastBatch.Load() }

// stampCommit records that EndARU just queued aru's commit record,
// under the given engine-commit span (zero when untraced). Caller
// holds d.mu.
func (d *LLD) stampCommit(aru ARUID, trace, span uint64) {
	if d.obs == nil {
		return
	}
	d.commitStamps = append(d.commitStamps, commitStamp{aru: aru, t0: d.obs.Now(), trace: trace, span: span})
}

// emitStampsDurable observes EndARU-to-durable latency for a drained
// set of commit stamps and emits their commit-durable spans, naming
// the batch (0 = a locked flush) and device sync that made each durable.
// Caller holds d.mu.
func (d *LLD) emitStampsDurable(stamps []commitStamp, batchID, syncID uint64) {
	if d.obs == nil || len(stamps) == 0 {
		return
	}
	now := d.obs.Now()
	for _, cs := range stamps {
		d.obs.Observe(obs.HistCommitDurable, now-cs.t0)
		d.obs.Emit(obs.EvCommitDurable, uint64(cs.aru), batchID, syncID)
		if cs.span != 0 {
			d.obs.EmitSpan(obs.Span{
				Trace: cs.trace, ID: d.obs.NextID(), Parent: cs.span,
				Kind: obs.SpanCommitDurable, Start: cs.t0, Dur: now - cs.t0,
				ARU: uint64(cs.aru), Arg1: batchID, Arg2: syncID,
			})
		}
	}
}
