package core

import (
	"testing"
	"time"

	"aru/internal/disk"
	"aru/internal/obs"
	"aru/internal/seg"
)

// spansByKind indexes a span snapshot.
func spansByKind(spans []obs.Span) map[obs.SpanKind][]obs.Span {
	m := map[obs.SpanKind][]obs.Span{}
	for _, s := range spans {
		m[s.Kind] = append(m[s.Kind], s)
	}
	return m
}

// TestSpanBatchCausality is the engine-level half of the tentpole's
// acceptance chain: a traced EndARU + Flush through the group-commit
// broker must yield engine-commit → commit-durable spans on the
// caller's trace, with the durable ack naming the batch and sync that
// covered it — and the named batch/sync spans must exist.
func TestSpanBatchCausality(t *testing.T) {
	tr := obs.New(obs.Config{})
	d, _ := newTestLLD(t, Params{Tracer: tr})
	defer d.Close()

	sc := tr.Start(obs.SpanClientRPC, obs.SpanContext{}).Ctx() // the caller's span
	aruID, err := d.BeginARU()
	if err != nil {
		t.Fatalf("BeginARU: %v", err)
	}
	lst, err := d.NewList(aruID)
	if err != nil {
		t.Fatalf("NewList: %v", err)
	}
	blk, err := d.NewBlock(aruID, lst, NilBlock)
	if err != nil {
		t.Fatalf("NewBlock: %v", err)
	}
	if err := d.Write(aruID, blk, fill(d, 0xAB)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := d.EndARUTraced(aruID, sc); err != nil {
		t.Fatalf("EndARUTraced: %v", err)
	}
	if err := d.FlushTraced(sc); err != nil {
		t.Fatalf("FlushTraced: %v", err)
	}

	byKind := spansByKind(tr.Spans())

	commits := byKind[obs.SpanEngineCommit]
	if len(commits) != 1 {
		t.Fatalf("got %d engine-commit spans, want 1", len(commits))
	}
	ec := commits[0]
	if ec.Trace != sc.Trace || ec.Parent != sc.Span || ec.ARU != uint64(aruID) {
		t.Fatalf("engine-commit span not parented on the caller's context: %+v (want trace %x parent %x)", ec, sc.Trace, sc.Span)
	}

	flushes := byKind[obs.SpanEngineFlush]
	if len(flushes) != 1 || flushes[0].Trace != sc.Trace || flushes[0].Parent != sc.Span {
		t.Fatalf("engine-flush span missing or unparented: %+v", flushes)
	}

	durables := byKind[obs.SpanCommitDurable]
	if len(durables) != 1 {
		t.Fatalf("got %d commit-durable spans, want 1", len(durables))
	}
	cd := durables[0]
	if cd.Trace != sc.Trace || cd.Parent != ec.ID || cd.ARU != uint64(aruID) {
		t.Fatalf("commit-durable span not chained to the engine commit: %+v (want trace %x parent %x)", cd, sc.Trace, ec.ID)
	}
	if cd.Arg1 == 0 || cd.Arg2 == 0 {
		t.Fatalf("durable ack does not name its batch and sync: batch=%d sync=%d", cd.Arg1, cd.Arg2)
	}

	// The named batch and sync must exist as spans, with the sync a
	// child of the batch.
	var batch *obs.Span
	for i, b := range byKind[obs.SpanCommitBatch] {
		if b.Arg1 == cd.Arg1 {
			batch = &byKind[obs.SpanCommitBatch][i]
		}
	}
	if batch == nil {
		t.Fatalf("no commit-batch span with id %d (batches: %v)", cd.Arg1, byKind[obs.SpanCommitBatch])
	}
	var sync *obs.Span
	for i, s := range byKind[obs.SpanDeviceSync] {
		if s.Arg1 == cd.Arg2 {
			sync = &byKind[obs.SpanDeviceSync][i]
		}
	}
	if sync == nil {
		t.Fatalf("no device-sync span with id %d (syncs: %v)", cd.Arg2, byKind[obs.SpanDeviceSync])
	}
	if sync.Parent != batch.ID || sync.Trace != batch.Trace {
		t.Fatalf("device-sync span not a child of its batch: sync=%+v batch=%+v", sync, batch)
	}
	if got := d.LastBatch(); got != cd.Arg1 {
		t.Fatalf("LastBatch() = %d, want %d", got, cd.Arg1)
	}
}

// TestSpanCheckpointRoundNamesSync: a commit made durable by a
// checkpoint round rather than a group-commit batch names the round's
// batch and its sync, and both exist as spans, the sync a child of the
// batch.
func TestSpanCheckpointRoundNamesSync(t *testing.T) {
	tr := obs.New(obs.Config{})
	d, _ := newTestLLD(t, Params{Tracer: tr})
	defer d.Close()

	aruID, err := d.BeginARU()
	if err != nil {
		t.Fatalf("BeginARU: %v", err)
	}
	lst, _ := d.NewList(aruID)
	blk, _ := d.NewBlock(aruID, lst, NilBlock)
	if err := d.Write(aruID, blk, fill(d, 1)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := d.EndARU(aruID); err != nil {
		t.Fatalf("EndARU: %v", err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	byKind := spansByKind(tr.Spans())
	durables := byKind[obs.SpanCommitDurable]
	if len(durables) != 1 {
		t.Fatalf("got %d commit-durable spans, want 1", len(durables))
	}
	cd := durables[0]
	if cd.Arg1 == 0 || cd.Arg2 == 0 {
		t.Fatalf("checkpointed durable ack: batch=%d sync=%d, want both nonzero", cd.Arg1, cd.Arg2)
	}
	var batch, sync *obs.Span
	for i, b := range byKind[obs.SpanCommitBatch] {
		if b.Arg1 == cd.Arg1 {
			batch = &byKind[obs.SpanCommitBatch][i]
		}
	}
	for i, s := range byKind[obs.SpanDeviceSync] {
		if s.Arg1 == cd.Arg2 {
			sync = &byKind[obs.SpanDeviceSync][i]
		}
	}
	if batch == nil || sync == nil || sync.Parent != batch.ID {
		t.Fatalf("the round's batch %d and sync %d are not a batch span with its sync as child: batch=%+v sync=%+v", cd.Arg1, cd.Arg2, batch, sync)
	}
	if n := len(byKind[obs.SpanCkptDelta]) + len(byKind[obs.SpanCheckpoint]); n != 1 {
		t.Fatalf("got %d checkpoint spans, want 1", n)
	}
	// Untraced EndARU with spans enabled roots its own trace.
	if cd.Trace == 0 || cd.Parent == 0 {
		t.Fatalf("untraced commit did not root a local trace: %+v", cd)
	}
}

// TestSpanRecovery: reopening a disk with segments to replay emits a
// recovery root span with per-segment children and one child per phase,
// the phases end to end inside the root and as long as the report says.
func TestSpanRecovery(t *testing.T) {
	layout := testLayout(64)
	dev := disk.NewMem(layout.DiskBytes())
	d, err := Format(dev, Params{Layout: layout})
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	lst, _ := d.NewList(seg.SimpleARU)
	for i := 0; i < 8; i++ {
		blk, _ := d.NewBlock(seg.SimpleARU, lst, NilBlock)
		if err := d.Write(seg.SimpleARU, blk, fill(d, byte(i))); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// Crash (no Close → no checkpoint): recovery must replay segments.
	tr := obs.New(obs.Config{})
	d2, rpt, err := OpenReport(dev, Params{Tracer: tr})
	if err != nil {
		t.Fatalf("OpenReport: %v", err)
	}
	defer d2.Close()
	if rpt.SegmentsReplayed == 0 {
		t.Fatal("test setup: nothing to replay")
	}
	byKind := spansByKind(tr.Spans())
	roots := byKind[obs.SpanRecovery]
	if len(roots) != 1 {
		t.Fatalf("got %d recovery spans, want 1", len(roots))
	}
	segs := byKind[obs.SpanRecoverySeg]
	if len(segs) != rpt.SegmentsReplayed {
		t.Fatalf("got %d recovery-seg spans, want %d", len(segs), rpt.SegmentsReplayed)
	}
	for _, s := range segs {
		if s.Parent != roots[0].ID || s.Trace != roots[0].Trace {
			t.Fatalf("recovery-seg span not a child of the recovery root: %+v root=%+v", s, roots[0])
		}
	}
	at := roots[0].Start
	for _, ph := range []struct {
		kind obs.SpanKind
		dur  time.Duration
	}{{obs.SpanRecoveryCkptLoad, rpt.CkptLoad}, {obs.SpanRecoveryScan, rpt.Scan}, {obs.SpanRecoverySweep, rpt.Sweep}} {
		got := byKind[ph.kind]
		if len(got) != 1 || got[0].Parent != roots[0].ID || got[0].Trace != roots[0].Trace {
			t.Fatalf("%v: spans %+v, want one child of the recovery root %+v", ph.kind, got, roots[0])
		}
		if got[0].Start != at || ph.dur <= 0 || got[0].Dur < ph.dur {
			t.Fatalf("%v: span %+v, want it to start at %v and cover the report's %v", ph.kind, got[0], at, ph.dur)
		}
		at += ph.dur
	}
	if end := roots[0].Start + roots[0].Dur; at > end {
		t.Fatalf("the phases end at %v, after the recovery span's end %v", at, end)
	}
}

// TestSpanDisabledZeroOverhead: with RingSize < 0 no spans are
// recorded, the traced entry points behave exactly like the plain ones,
// and the histograms are still fed.
func TestSpanDisabledZeroOverhead(t *testing.T) {
	tr := obs.New(obs.Config{RingSize: -1})
	d, _ := newTestLLD(t, Params{Tracer: tr})
	defer d.Close()
	aruID, _ := d.BeginARU()
	lst, _ := d.NewList(aruID)
	blk, _ := d.NewBlock(aruID, lst, NilBlock)
	if err := d.Write(aruID, blk, fill(d, 2)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := d.EndARUTraced(aruID, obs.SpanContext{Trace: 1, Span: 2}); err != nil {
		t.Fatalf("EndARUTraced: %v", err)
	}
	if err := d.FlushTraced(obs.SpanContext{Trace: 1, Span: 2}); err != nil {
		t.Fatalf("FlushTraced: %v", err)
	}
	if spans := tr.Spans(); spans != nil {
		t.Fatalf("span-disabled tracer recorded %d spans", len(spans))
	}
	for _, h := range []obs.HistID{obs.HistWrite, obs.HistCommitDurable, obs.HistGroupCommitWait, obs.HistSegFlush} {
		if tr.Histogram(h).Count == 0 {
			t.Errorf("histogram %v not fed with the ring off", h)
		}
	}
}
