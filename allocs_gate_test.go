package aru_test

// Allocation-budget gates for the engine's hot paths (see
// internal/alloctest). Each test warms the engine's free lists, then
// measures the steady-state allocations of one operation and fails if
// it exceeds its budget. The budgets encode this PR's measured
// results with a little headroom — before the pooled version-record /
// buffer / ARU-state arenas, an ARU write+commit cost 10 allocs/op
// and a durable commit 15; the gates hold them at ≤2 and ≤6.
//
// CI runs these in the allocs-gate job without -race (the race
// detector's instrumentation allocates, so the tests skip themselves
// under it).

import (
	"math/rand"
	"testing"

	"aru"
	"aru/internal/alloctest"
)

func gateDisk(t *testing.T, numSegs int) *aru.Disk {
	t.Helper()
	layout := aru.DefaultLayout(numSegs)
	dev := aru.NewMemDevice(layout.DiskBytes())
	d, err := aru.Format(dev, aru.Params{Layout: layout})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestAllocsSimpleWrite gates the non-ARU block write — the hottest
// operation of the interface. Steady state: zero allocations (the
// committed-version buffer is recycled through the engine free list).
func TestAllocsSimpleWrite(t *testing.T) {
	d := gateDisk(t, 512)
	lst, _ := d.NewList(aru.Simple)
	blk, _ := d.NewBlock(aru.Simple, lst, aru.NilBlock)
	buf := make([]byte, d.BlockSize())
	op := func() {
		buf[0]++
		if err := d.Write(aru.Simple, blk, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		op()
	}
	alloctest.Check(t, "simple write", 0, 200, op)
}

// TestAllocsRead gates the committed-state read served from memory.
func TestAllocsRead(t *testing.T) {
	d := gateDisk(t, 64)
	lst, _ := d.NewList(aru.Simple)
	blk, _ := d.NewBlock(aru.Simple, lst, aru.NilBlock)
	buf := make([]byte, d.BlockSize())
	if err := d.Write(aru.Simple, blk, buf); err != nil {
		t.Fatal(err)
	}
	op := func() {
		if err := d.Read(aru.Simple, blk, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		op()
	}
	alloctest.Check(t, "read", 0, 200, op)
}

// TestAllocsARUWriteCommit gates the full ARU cycle: begin, write
// three blocks, commit. The ARU state, its shadow version records and
// their data buffers all come from the engine free lists, so the
// steady state allocates nothing; the budget of 2 leaves headroom for
// periodic segment turnover.
func TestAllocsARUWriteCommit(t *testing.T) {
	d := gateDisk(t, 512)
	lst, _ := d.NewList(aru.Simple)
	blks := make([]aru.BlockID, 3)
	for i := range blks {
		blks[i], _ = d.NewBlock(aru.Simple, lst, aru.NilBlock)
	}
	buf := make([]byte, d.BlockSize())
	op := func() {
		a, err := d.BeginARU()
		if err != nil {
			t.Fatal(err)
		}
		buf[0]++
		for _, blk := range blks {
			if err := d.Write(a, blk, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.EndARU(a); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		op()
	}
	alloctest.Check(t, "ARU write+commit", 2, 200, op)
}

// TestAllocsARUCommitAcrossSeals gates the block data path across
// segment seals. The gates above rewrite the same few blocks, which
// replace each other in memory and hardly ever reach a segment; here
// every unit writes three of 1 024 distinct blocks, so every write is
// materialized, and the measured region spans several seals. In steady
// state a block's buffer moves free list → version → cache entry →
// retire-set → free list without a copy into fresh memory (DESIGN.md
// §12): what is left per unit is the three cache-entry headers and the
// amortized per-seal bookkeeping — against ≈12 KB per unit when every
// materialized block was copied into a new cache entry.
func TestAllocsARUCommitAcrossSeals(t *testing.T) {
	d := gateDisk(t, 256)
	lst, _ := d.NewList(aru.Simple)
	blks := make([]aru.BlockID, 1024)
	for i := range blks {
		blks[i], _ = d.NewBlock(aru.Simple, lst, aru.NilBlock)
	}
	buf := make([]byte, d.BlockSize())
	next := 0
	op := func() {
		a, err := d.BeginARU()
		if err != nil {
			t.Fatal(err)
		}
		buf[0]++
		for k := 0; k < 3; k++ {
			if err := d.Write(a, blks[next%len(blks)], buf); err != nil {
				t.Fatal(err)
			}
			next += 7 // coprime to the block count: distinct blocks within a segment
		}
		if err := d.EndARU(a); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up past a full cache (1 024 entries) and a few recycled
	// builders, so the free lists are at their steady-state size.
	for i := 0; i < 1500; i++ {
		op()
	}
	const units = 400 // ≈ 9 segments of 127 blocks
	seals := d.Stats().SegmentsWritten
	alloctest.Check(t, "ARU commit across seals", 5, units, op)
	alloctest.CheckBytes(t, "ARU commit across seals", 1024, units, op)
	if n := d.Stats().SegmentsWritten - seals; n < 4 {
		t.Fatalf("the measured region sealed %d segments, want at least 4", n)
	}
}

// TestAllocsCommitDurable gates the durable commit: begin, one block
// write, EndARU plus a device sync through the group-commit broker.
// The sealed-segment bookkeeping, spare builders and commit-stamp
// slices are all pooled; the remaining budget covers the broker's
// per-batch condition-variable signalling and device round trip.
func TestAllocsCommitDurable(t *testing.T) {
	d := gateDisk(t, 512)
	lst, _ := d.NewList(aru.Simple)
	blk, _ := d.NewBlock(aru.Simple, lst, aru.NilBlock)
	buf := make([]byte, d.BlockSize())
	op := func() {
		a, err := d.BeginARU()
		if err != nil {
			t.Fatal(err)
		}
		buf[0]++
		if err := d.Write(a, blk, buf); err != nil {
			t.Fatal(err)
		}
		if err := d.CommitDurable(a); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		op()
	}
	alloctest.Check(t, "durable commit", 6, 200, op)
}

// TestAllocsCleanerRound gates the bytes maintenance allocates per unit
// on a wrapped log: the benchmark's churn unit — three overwrites, and
// every fourth unit a block appended to a list and its head deleted — on
// 64 segments about 68 % live, with a Flush every 256 units. The measured
// region runs cleaner batches and checkpoint deltas. A segment image goes
// back to the pool when no published epoch has seen it, and a delta is
// encoded straight from its dirty sets, so what is left per unit is the
// delta's own buffer and the amortized cache-entry headers — against
// ≈14.5 KB per unit when each cleaner batch allocated fresh segment images
// and each delta gathered its tables first.
func TestAllocsCleanerRound(t *testing.T) {
	d := gateDisk(t, 64)
	const nLists, per = 56, 100
	buf := make([]byte, d.BlockSize())
	lists := make([]aru.ListID, nLists)
	rings := make([][per]aru.BlockID, nLists) // each list's blocks, oldest at heads[l]
	heads := make([]int, nLists)
	for l := range lists {
		lists[l], _ = d.NewList(aru.Simple)
		pred := aru.NilBlock
		for k := 0; k < per; k++ {
			b, err := d.NewBlock(aru.Simple, lists[l], pred)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Write(aru.Simple, b, buf); err != nil {
				t.Fatal(err)
			}
			rings[l][k], pred = b, b
		}
	}
	rng := rand.New(rand.NewSource(1))
	units := 0
	op := func() {
		units++
		a, err := d.BeginARU()
		if err != nil {
			t.Fatal(err)
		}
		buf[0]++
		for j := 0; j < 3; j++ {
			l := rng.Intn(nLists)
			if err := d.Write(a, rings[l][rng.Intn(per)], buf); err != nil {
				t.Fatal(err)
			}
		}
		if units%4 == 0 {
			l := rng.Intn(nLists)
			h := heads[l]
			nb, err := d.NewBlock(a, lists[l], rings[l][(h+per-1)%per])
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Write(a, nb, buf); err != nil {
				t.Fatal(err)
			}
			if err := d.DeleteBlock(a, rings[l][h]); err != nil {
				t.Fatal(err)
			}
			rings[l][h], heads[l] = nb, (h+1)%per
		}
		if err := d.EndARU(a); err != nil {
			t.Fatal(err)
		}
		if units%256 == 0 {
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm up until the log has wrapped and the pools are at their
	// steady-state size.
	for i := 0; i < 6000; i++ {
		op()
	}
	const measured = 4000
	before := d.Stats()
	alloctest.CheckBytes(t, "cleaner round", 2048, measured, op)
	after := d.Stats()
	cleaned, deltas := after.SegmentsCleaned-before.SegmentsCleaned, after.CkptDeltas-before.CkptDeltas
	t.Logf("measured region: %d segments cleaned, %d deltas", cleaned, deltas)
	if cleaned < 8 || deltas < 1 {
		t.Fatalf("the measured region cleaned %d segments and wrote %d deltas, want at least 8 and 1", cleaned, deltas)
	}
}
