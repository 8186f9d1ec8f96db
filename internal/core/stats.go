package core

import "sync/atomic"

// liveStats holds the five counters advanced off d.mu: Reads and the
// cache counters, bumped by lock-free readers, and Flushes, counted at
// call entry. Every other counter is a plain Stats field of d.stats,
// written only under d.mu and frozen into each epoch at its publish.
type liveStats struct {
	Reads, CacheHits, CacheMisses, CacheFillAllocs, Flushes atomic.Int64
}

// overlay writes the live counters into st.
func (l *liveStats) overlay(st *Stats) {
	st.Reads = l.Reads.Load()
	st.CacheHits = l.CacheHits.Load()
	st.CacheMisses = l.CacheMisses.Load()
	st.CacheFillAllocs = l.CacheFillAllocs.Load()
	st.Flushes = l.Flushes.Load()
}
