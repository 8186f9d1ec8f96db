package core

import "aru/internal/obs"

// commitStamp holds, for one commit record EndARU queued, the
// commit-durable span opened at that moment under the engine commit,
// so the device sync that finally covers the record can end it: the
// full EndARU-to-durable latency, naming the batch and sync (DESIGN.md
// §13: every durable ack names its sync).
type commitStamp struct {
	aru  ARUID
	span obs.Active
}

// Tracer returns the observability sink attached via Params.Tracer,
// or nil when the instance runs uninstrumented. Embedding layers (the
// Minix file system, the shard layer) use it to record their own
// spans into the same timeline as the engine's.
func (d *LLD) Tracer() *obs.Tracer { return d.obs }

// Metrics returns point-in-time snapshots of the histograms (read,
// write, commit-to-durable, segment flush, recovery, checkpoint,
// cleaner pass, …), or nil without a tracer. Like Stats, the snapshot
// never tears: each histogram cell is read atomically.
func (d *LLD) Metrics() []obs.HistSnapshot { return d.obs.Histograms() }

// LastBatch returns the id of the most recently completed group-commit
// batch (0 before the first batch). Maintained
// atomically so callers — e.g. the network server's slow-op log — can
// read it without taking the engine lock.
func (d *LLD) LastBatch() uint64 { return d.lastBatch.Load() }

// stampCommit records that EndARU just queued aru's commit record,
// under the engine-commit span commit. Caller holds d.mu.
func (d *LLD) stampCommit(aru ARUID, commit obs.SpanContext) {
	if d.obs == nil {
		return
	}
	d.commitStamps = append(d.commitStamps, commitStamp{aru: aru, span: d.obs.Start(obs.SpanCommitDurable, commit)})
}

// emitStampsDurable ends the commit-durable spans of a drained set of
// commit stamps, naming the batch (0 = pickSeg's locked flush) and device sync
// that made each durable. Caller holds d.mu.
func (d *LLD) emitStampsDurable(stamps []commitStamp, batchID, syncID uint64) {
	if d.obs == nil || len(stamps) == 0 {
		return
	}
	now := d.obs.Now()
	for _, cs := range stamps {
		cs.span.EndAt(now, uint64(cs.aru), batchID, syncID)
	}
}
