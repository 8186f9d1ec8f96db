package main

import (
	"math/bits"
	"sort"
)

// hist is a fixed-size log-linear latency histogram: 64 sub-buckets
// per power of two of nanoseconds, so a bucket is at most 1.6 % wide.
// The benchmark keeps samples here rather than in a slice so that its
// own memory does not grow with the run and does not dilute
// heap_live_mb. Not safe for concurrent use: each client owns one and
// they are merged after the run.
type hist struct {
	n       int64
	sumNs   int64
	buckets [histBuckets]int64
}

const (
	histSub     = 64
	histSubBits = 6
	histOctaves = 36 // values up to 2^41 ns ≈ 37 min; larger ones clamp
	histBuckets = histOctaves * histSub
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	o := bits.Len64(uint64(ns)) - 1 // ≥ histSubBits
	idx := (o-histSubBits+1)*histSub + int((uint64(ns)>>(uint(o)-histSubBits))&(histSub-1))
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// histBounds returns the half-open nanosecond range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	o := i/histSub + histSubBits - 1
	sub := i % histSub
	w := float64(uint64(1) << (uint(o) - histSubBits))
	lo = float64(uint64(1)<<uint(o)) + float64(sub)*w
	return lo, lo + w
}

func (h *hist) add(ns int64) {
	h.n++
	h.sumNs += ns
	h.buckets[histIndex(ns)]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	h.sumNs += o.sumNs
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds it, or 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	_, hi := histBounds(histBuckets - 1)
	return hi
}

func (h *hist) meanNs() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sumNs) / float64(h.n)
}

// fracAbove returns the share of samples in buckets entirely above ns.
func (h *hist) fracAbove(ns float64) float64 {
	if h.n == 0 {
		return 0
	}
	var above int64
	for i, c := range h.buckets {
		if lo, _ := histBounds(i); lo > ns {
			above += c
		}
	}
	return float64(above) / float64(h.n)
}

// median returns the median of xs (0 when empty) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (exclusive method), so
// the spreads printed here match the ones the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - 4*float64(j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
