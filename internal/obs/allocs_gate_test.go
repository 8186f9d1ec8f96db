package obs

// Allocation-budget gates for the observability layer (see
// internal/alloctest): with a tracer attached, recording a span and
// observing a latency are a few atomic operations — no allocations —
// and the periodic snapshot path (SnapshotInto / HistogramsInto)
// reuses the caller's bucket backing, so a scraper polling /metrics
// mid-soak does not perturb the engine's allocation profile.

import (
	"testing"
	"time"

	"aru/internal/alloctest"
)

func TestAllocsEmitObserve(t *testing.T) {
	tr := New(Config{RingSize: 1024})
	op := func() {
		tr.Start(SpanWrite, SpanContext{}).End(1, 2, 3) // ring slot + histogram
		tr.Instant(SpanEpochPublish, 0, 1, 2)
		tr.Observe(HistCommitBatch, 3)
	}
	op()
	alloctest.Check(t, "emit+observe", 0, 500, op)
}

func TestAllocsHistogramsInto(t *testing.T) {
	tr := New(Config{RingSize: -1})
	for i := 0; i < 1000; i++ {
		tr.Observe(HistWrite, time.Duration(i)*time.Microsecond)
		tr.Observe(HistCommitDurable, time.Duration(i)*time.Nanosecond)
	}
	scratch := tr.HistogramsInto(nil) // warm: allocate snapshots once
	op := func() {
		scratch = tr.HistogramsInto(scratch)
	}
	alloctest.Check(t, "HistogramsInto", 0, 200, op)
	if len(scratch) != int(numHists) {
		t.Fatalf("snapshot has %d histograms, want %d", len(scratch), numHists)
	}
}
