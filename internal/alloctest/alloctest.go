// Package alloctest enforces allocations-per-operation budgets on the
// engine's hot paths. A budget is an executable contract: the gate
// tests (named TestAllocs*) measure a steady-state operation with
// testing.AllocsPerRun and fail when it allocates more than its
// budget, so an accidental allocation regression fails `go test`
// instead of silently eroding throughput.
//
// Budgets are measured end to end across all goroutines (AllocsPerRun
// counts every malloc in the process), so a budget on the network
// write path covers the client encoder, the server dispatch and the
// response path together.
//
// The gates skip themselves under the race detector: race
// instrumentation adds allocations of its own, so the numbers are
// only meaningful in a plain build. CI runs them in a dedicated
// allocs-gate job without -race.
package alloctest

import (
	"runtime"
	"testing"
)

// Check measures op's steady-state allocation count as the average of
// runs executions and fails t if it exceeds budget. op may batch
// several logical operations; budget then covers the whole batch.
func Check(t *testing.T, name string, budget float64, runs int, op func()) {
	t.Helper()
	if RaceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	got := testing.AllocsPerRun(runs, op)
	t.Logf("%s: %.1f allocs/op (budget %.0f)", name, got, budget)
	if got > budget {
		t.Errorf("%s allocates %.1f per op, budget is %.0f — a new allocation crept onto a hot path", name, got, budget)
	}
}

// CheckBytes is Check for allocated bytes: it measures the average
// number of heap bytes one execution of op allocates over runs
// executions (across all goroutines, like Check) and fails t if that
// exceeds budget. A path can stay within a small allocation count and
// still copy every block it handles into fresh memory; this is the
// gate for that.
func CheckBytes(t *testing.T, name string, budget float64, runs int, op func()) {
	t.Helper()
	if RaceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
	t.Logf("%s: %.0f bytes/op (budget %.0f)", name, got, budget)
	if got > budget {
		t.Errorf("%s allocates %.0f bytes per op, budget is %.0f — a block is being copied into fresh memory on a hot path", name, got, budget)
	}
}
