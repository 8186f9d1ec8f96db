package obs

import (
	"sort"
	"sync"
	"testing"
	"time"
)

// TestRingConcurrent hammers one tracer from many goroutines while a
// reader drains continuously; run under -race this is the gate for the
// ring's lock-free discipline. Every drained snapshot must be
// Seq-ordered and hold only well-formed spans, and every End must have
// fed its kind's histogram.
func TestRingConcurrent(t *testing.T) {
	tr := New(Config{RingSize: 1024})
	const (
		writers = 8
		perW    = 5000
	)
	var writersWG, drainWG sync.WaitGroup
	stop := make(chan struct{})

	drainWG.Add(1)
	go func() { // continuous drainer
		defer drainWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			spans := tr.Spans()
			for i, s := range spans {
				if i > 0 && spans[i-1].Seq >= s.Seq {
					t.Errorf("snapshot out of order: seq %d then %d", spans[i-1].Seq, s.Seq)
					return
				}
				if s.Kind != SpanWrite || s.ARU >= writers || s.ID == 0 {
					t.Errorf("malformed span %+v", s)
					return
				}
			}
		}
	}()

	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perW; i++ {
				tr.Start(SpanWrite, SpanContext{}).End(uint64(w), uint64(i), 0)
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	drainWG.Wait()

	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans drained")
	}
	if len(spans) > 1024 {
		t.Fatalf("ring returned %d spans, capacity 1024", len(spans))
	}
	// The newest surviving ticket must be the last one issued.
	if got, want := spans[len(spans)-1].Seq, uint64(writers*perW); got != want {
		t.Fatalf("newest seq = %d, want %d", got, want)
	}
	if n := tr.Histogram(HistWrite).Count; n != writers*perW {
		t.Fatalf("histogram count = %d, want %d", n, writers*perW)
	}
}

// TestHistogramPercentiles checks quantiles against a known uniform
// distribution: 1..1000 µs in 1 µs steps.
func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot("uniform")
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if got := s.Mean(); got < 400*time.Microsecond || got > 600*time.Microsecond {
		t.Fatalf("mean = %v, want ≈500µs", got)
	}
	// Log-scaled buckets guarantee ≤25% relative error above, and the
	// estimate is always an upper bucket bound (never below the true
	// quantile's bucket).
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Microsecond},
		{0.95, 950 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
	}
	for _, c := range cases {
		got := s.Quantile(c.q)
		lo := c.want - c.want/4
		hi := c.want + c.want/4
		if got < lo || got > hi {
			t.Errorf("q%.2f = %v, want within 25%% of %v", c.q, got, c.want)
		}
	}
	if got := s.Quantile(1.0); got < 1000*time.Microsecond {
		t.Errorf("q1.0 = %v, want ≥ max sample 1ms", got)
	}
}

// TestHistogramMerge merges two disjoint distributions and checks the
// combined counts and quantiles.
func TestHistogramMerge(t *testing.T) {
	var fast, slow Histogram
	for i := 0; i < 900; i++ {
		fast.Observe(10 * time.Microsecond)
	}
	for i := 0; i < 100; i++ {
		slow.Observe(10 * time.Millisecond)
	}
	m := fast.Snapshot("lat").Merge(slow.Snapshot("lat"))
	if m.Count != 1000 {
		t.Fatalf("merged count = %d, want 1000", m.Count)
	}
	if got := m.Quantile(0.50); got > 13*time.Microsecond {
		t.Errorf("merged p50 = %v, want ≈10µs", got)
	}
	// 90% of samples are fast, so p95 must land in the slow mode.
	if got := m.Quantile(0.95); got < 8*time.Millisecond {
		t.Errorf("merged p95 = %v, want ≈10ms", got)
	}
	if got, want := m.SumNs, int64(900*10_000+100*10_000_000); got != want {
		t.Errorf("merged sum = %d, want %d", got, want)
	}
	// Merging with an empty snapshot is the identity.
	id := m.Merge(HistSnapshot{Name: "lat"})
	if id.Count != m.Count || id.SumNs != m.SumNs || len(id.Buckets) != len(m.Buckets) {
		t.Errorf("merge with empty changed the snapshot: %+v vs %+v", id, m)
	}
}

// TestBucketBounds pins the bucket function: indices are monotone,
// bounds are consistent, and relative error stays within 25%.
func TestBucketBounds(t *testing.T) {
	last := -1
	for _, ns := range []int64{0, 1, 2, 3, 4, 5, 7, 8, 9, 100, 1023, 1024, 1 << 20, 1 << 40} {
		i := bucketIndex(ns)
		if i < last {
			t.Fatalf("bucketIndex not monotone at %d ns", ns)
		}
		last = i
		ub := bucketUpperNs(i)
		if ub < ns {
			t.Fatalf("bucket %d upper bound %d < sample %d", i, ub, ns)
		}
		if ns >= 4 && float64(ub-ns) > 0.25*float64(ns) {
			t.Fatalf("bucket %d upper bound %d is >25%% above sample %d", i, ub, ns)
		}
	}
}

func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		"Reads":                  "reads",
		"CacheHits":              "cache_hits",
		"ARUsBegun":              "arus_begun",
		"RecoveredARUs":          "recovered_arus",
		"PredecessorSearchSteps": "predecessor_search_steps",
	}
	for in, want := range cases {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestNilTracer: a nil tracer must be a safe no-op sink everywhere.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	tr.Observe(HistRead, time.Second)
	tr.Instant(SpanARUBegin, 1, 0, 0)
	sp := tr.Start(SpanRead, SpanContext{Trace: 1, Span: 2})
	sp.End(1, 2, 3)
	tr.StartAt(SpanRecovery, SpanContext{}, 5).EndAt(9, 0, 0, 0)
	if sp.Ctx() != (SpanContext{}) || tr.Spans() != nil || tr.Histograms() != nil ||
		tr.SpanEnabled() || tr.SpansDropped() != 0 || tr.Now() != 0 {
		t.Fatal("nil tracer leaked state")
	}
	if s := tr.Histogram(HistRead); s.Count != 0 {
		t.Fatal("nil tracer histogram not empty")
	}
}

// Merge returns the histogram holding both snapshots' samples. Both
// inputs must come from Histogram.Snapshot (bucket bounds align); the
// merged snapshot keeps the receiver's name.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	m := HistSnapshot{
		Name:  s.Name,
		Count: s.Count + o.Count,
		SumNs: s.SumNs + o.SumNs,
	}
	byBound := make(map[int64]uint64, len(s.Buckets)+len(o.Buckets))
	for _, b := range s.Buckets {
		byBound[b.UpperNs] += b.Count
	}
	for _, b := range o.Buckets {
		byBound[b.UpperNs] += b.Count
	}
	for ub, n := range byBound {
		m.Buckets = append(m.Buckets, BucketCount{UpperNs: ub, Count: n})
	}
	sort.Slice(m.Buckets, func(i, j int) bool { return m.Buckets[i].UpperNs < m.Buckets[j].UpperNs })
	return m
}
