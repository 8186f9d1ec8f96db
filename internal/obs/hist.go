package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the bucket count of a Histogram: four sub-buckets per
// power of two of nanoseconds (octave o, sub s covers
// [2^o + s·2^(o-2), 2^o + (s+1)·2^(o-2))), so any sample lands in a
// bucket whose bounds are within 25% of its true value. 64 octaves × 4
// covers the full int64 nanosecond range in a fixed 2 KB array.
const histBuckets = 256

// Histogram is a lock-free log-scaled latency histogram. Observe is
// three atomic adds; the zero value is ready to use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Uint64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bucketIndex(ns)].Add(1)
}

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(ns int64) int {
	v := uint64(ns)
	if v < 4 {
		return int(v) // exact buckets for 0..3 ns
	}
	o := bits.Len64(v) - 1          // floor(log2 v), ≥ 2
	sub := (v >> (uint(o) - 2)) & 3 // next two bits below the leading one
	return o*4 + int(sub)
}

// bucketUpperNs returns the inclusive upper bound of bucket i.
func bucketUpperNs(i int) int64 {
	if i < 4 {
		return int64(i)
	}
	o, sub := i/4, i%4
	return int64((uint64(5+sub) << (uint(o) - 2)) - 1)
}

// Snapshot captures the histogram's current contents under the given
// name. Concurrent observations may be mid-flight; the snapshot is a
// consistent-enough view for monitoring (each cell is read atomically,
// counts are monotone).
func (h *Histogram) Snapshot(name string) HistSnapshot {
	var s HistSnapshot
	h.SnapshotInto(name, &s)
	return s
}

// SnapshotInto is Snapshot writing into a caller-owned value: the
// bucket slice is reused ([:0]) instead of reallocated, so a scraper
// that keeps one HistSnapshot per histogram pays no per-bucket
// allocation on repeated snapshots (e.g. /metrics polled mid-soak).
func (h *Histogram) SnapshotInto(name string, s *HistSnapshot) {
	s.Name = name
	s.Count = h.count.Load()
	s.SumNs = h.sum.Load()
	s.Buckets = s.Buckets[:0]
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			s.Buckets = append(s.Buckets, BucketCount{UpperNs: bucketUpperNs(i), Count: n})
		}
	}
}

// BucketCount is one non-empty histogram bucket: Count samples were ≤
// UpperNs nanoseconds (and above the previous bucket's bound). Counts
// are per-bucket, not cumulative.
type BucketCount struct {
	UpperNs int64  `json:"upper_ns"`
	Count   uint64 `json:"count"`
}

// HistSnapshot is an immutable point-in-time copy of one histogram,
// safe to serialize, merge and query.
type HistSnapshot struct {
	Name    string        `json:"name"`
	Count   uint64        `json:"count"`
	SumNs   int64         `json:"sum_ns"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Mean returns the average sample, or 0 when empty.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNs / int64(s.Count))
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile (0 < q ≤ 1), i.e. an estimate within the bucket resolution
// (≤ 25% relative error). Returns 0 when the histogram is empty.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			return time.Duration(b.UpperNs)
		}
	}
	return time.Duration(s.Buckets[len(s.Buckets)-1].UpperNs)
}

// String renders a one-line summary: count, mean and the tail
// percentiles through p999.
func (s HistSnapshot) String() string {
	return fmt.Sprintf("%s: n=%d mean=%v p50=%v p95=%v p99=%v p999=%v",
		s.Name, s.Count, s.Mean(), s.Quantile(0.50), s.Quantile(0.95),
		s.Quantile(0.99), s.Quantile(0.999))
}
