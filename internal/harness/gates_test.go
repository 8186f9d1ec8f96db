package harness

import (
	"testing"
	"time"

	"aru/internal/alloctest"
)

// The four wall-clock ratio gates. Each runs the size CI has always run
// and holds the threshold CI has always passed; the constants live here
// and nowhere else. Under the race detector the workloads and the
// structural assertions still run, but the timing assertions are
// skipped: its per-operation CPU overhead swamps the sync pipelining
// the ratios measure (observed shard scaling dips below 1x), so CI runs
// these unraced.
const (
	// gateSyncDelay is the wall-clock cost of one device sync in the
	// group-commit and shard gates: long enough (2 ms, a fast disk's
	// cache flush) that the sync, not host CPU, bounds every side.
	gateSyncDelay = 2 * time.Millisecond

	// Group commit: 8 committers x 25 durable commits. Serialized, the
	// 200 commits pay 200 syncs; the broker must turn that into at
	// least 2x the throughput with at most a quarter of the syncs
	// (typically 5x and 7.7x — the floors leave room for a loaded
	// runner, not for a broker that stopped coalescing).
	gcCommitters      = 8
	gcCommits         = 25
	gcMinSpeedup      = 2.0
	gcMinAmortization = 4.0

	// Shard scaling: 16 committers x 24 durable commits, pinned. Four
	// sync pipelines must at least double one (typically 4x), and the
	// routing a single-shard unit pays must stay within 10% of the bare
	// engine (typically within 3% either way).
	shardCommitters      = 16
	shardCommits         = 24
	shardMinScale        = 2.0
	shardMaxFastOverhead = 0.10

	// Recovery: the same 2,800-unit history with its newest checkpoint
	// at 90%, against none at all. The gate judges what the checkpoint
	// bounds — RecoveryReport.Scan, the window scan plus replay — not the
	// whole mount: loading the checkpoint and the sweep follow the live
	// state, both ends pay them equally, and with replay made cheap they
	// are most of a mount, so the whole-mount ratio punished exactly the
	// change that makes replay cheaper. O(delta) recovery must scan and
	// replay the 10% tail in at most half the full scan's time (typically
	// a third; the trailer scan of all 512 segments both ends pay is why
	// not a tenth). Both whole-mount times stay in the gate row.
	recoveryUnits    = 2800
	recoveryTailFrac = 0.10
	recoveryMaxRatio = 0.5

	// Read path: 8 readers x 200,000 committed reads beside a
	// committer, enough for thousands of epoch publications to race the
	// readers.
	gateReaders    = 8
	readsPerReader = 200000
)

func TestGateGroupCommit(t *testing.T) {
	r, err := RunGroupCommit(gcCommitters, gcCommits, gateSyncDelay)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("gate row: %d committers x %d commits @ %v: serial %v / %d syncs, broker %v / %d syncs, speedup %.2fx, amortization %.2fx",
		gcCommitters, gcCommits, gateSyncDelay,
		r.SerialElapsed.Round(time.Millisecond), r.SerialSyncs,
		r.GroupElapsed.Round(time.Millisecond), r.GroupSyncs, r.Speedup(), r.Amortization())
	if total := int64(gcCommitters * gcCommits); r.SerialSyncs < total {
		t.Errorf("serialized side paid %d syncs for %d durable commits: flushes met in the broker", r.SerialSyncs, total)
	}
	if r.GroupSyncs <= 0 {
		t.Errorf("broker side counted no syncs: %+v", r)
	}
	if alloctest.RaceEnabled {
		return
	}
	if r.Speedup() < gcMinSpeedup {
		t.Errorf("speedup %.2fx, below the floor of %.2fx", r.Speedup(), gcMinSpeedup)
	}
	if r.Amortization() < gcMinAmortization {
		t.Errorf("sync amortization %.2fx, below the floor of %.2fx", r.Amortization(), gcMinAmortization)
	}
}

// TestGateShardScale also holds what TestRunShardScaleSweep asserted:
// every commit on the fast path, none cross-shard, syncs counted,
// positive throughput, both fast-path sides measured.
func TestGateShardScale(t *testing.T) {
	var rows [2]ShardScaleResult
	for i, shards := range []int{1, 4} {
		r, err := RunShardScale(shards, shardCommitters, shardCommits, gateSyncDelay)
		if err != nil {
			t.Fatal(err)
		}
		if r.FastPath != shardCommitters*shardCommits {
			t.Errorf("%d shards: %d fast-path commits, want %d", shards, r.FastPath, shardCommitters*shardCommits)
		}
		if r.Cross != 0 {
			t.Errorf("%d shards: %d cross-shard commits on a pinned workload", shards, r.Cross)
		}
		if r.Syncs <= 0 || r.PerSec() <= 0 {
			t.Errorf("%d shards: syncs or throughput not measured: %+v", shards, r)
		}
		rows[i] = r
	}
	fp, err := RunShardFastPath(shardCommitters, shardCommits, gateSyncDelay)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Unsharded <= 0 || fp.Sharded <= 0 {
		t.Fatalf("fast path timings not measured: %+v", fp)
	}
	scale := rows[1].PerSec() / rows[0].PerSec()
	t.Logf("gate row: %d committers x %d commits @ %v: 1 shard %.0f c/s, 4 shards %.0f c/s, scale %.2fx; fast path bare %v, 1-shard %v (%+.1f%%)",
		shardCommitters, shardCommits, gateSyncDelay, rows[0].PerSec(), rows[1].PerSec(), scale,
		fp.Unsharded.Round(time.Millisecond), fp.Sharded.Round(time.Millisecond), fp.Overhead()*100)
	if alloctest.RaceEnabled {
		return
	}
	if scale < shardMinScale {
		t.Errorf("aggregate throughput scaled %.2fx from 1 to 4 shards, below the floor of %.2fx", scale, shardMinScale)
	}
	if fp.Overhead() > shardMaxFastOverhead {
		t.Errorf("single-shard fast path %.1f%% slower than the bare engine, above the ceiling of %.0f%%",
			fp.Overhead()*100, shardMaxFastOverhead*100)
	}
}

// TestGateReadPathContention also holds what TestReadScaleSweep
// asserted: every read completed and timed, and the zero-contention
// verdict drawn from a non-empty profile. Nothing here is a timing
// assertion, so all of it runs under the race detector too.
func TestGateReadPathContention(t *testing.T) {
	r, err := RunReadScale(gateReaders, readsPerReader)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("gate row: %d readers x %d reads: %.0f reads/s beside %d commits, %d read-path frames in %d profiled blocking events",
		gateReaders, readsPerReader, r.PerSec(), r.Commits, len(r.ContendedFrames), r.ProfileEvents)
	if r.Ops != gateReaders*readsPerReader || r.Elapsed <= 0 {
		t.Errorf("reads not completed or not timed: %+v", r)
	}
	if len(r.ContendedFrames) > 0 {
		t.Errorf("read path contended on a lock: %v", r.ContendedFrames)
	}
	if r.ProfileEvents == 0 {
		t.Error("contention profile captured no events: the zero-contention verdict would be vacuous")
	}
}

func TestGateRecoveryCurve(t *testing.T) {
	full, err := RunRecoveryPoint(recoveryUnits, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := RunRecoveryPoint(recoveryUnits, recoveryTailFrac)
	if err != nil {
		t.Fatal(err)
	}
	if full.Scan <= 0 || tail.Scan <= 0 || full.Recover < full.Scan || tail.Recover < tail.Scan {
		t.Fatalf("mounts not timed: full %+v, tail %+v", full, tail)
	}
	ratio := float64(tail.Scan) / float64(full.Scan)
	t.Logf("gate row: %d units: full scan %d segments / %d entries, scan+replay %v of a %v mount; %.0f%% tail (chain depth %d) %d segments / %d entries, scan+replay %v of a %v mount; ratio %.2fx",
		recoveryUnits, full.SegmentsReplayed, full.EntriesReplayed, full.Scan.Round(10*time.Microsecond), full.Recover.Round(10*time.Microsecond),
		recoveryTailFrac*100, tail.ChainDepth, tail.SegmentsReplayed, tail.EntriesReplayed, tail.Scan.Round(10*time.Microsecond), tail.Recover.Round(10*time.Microsecond), ratio)
	if tail.EntriesReplayed >= full.EntriesReplayed {
		t.Errorf("tail mount replayed %d entries, full scan %d: the checkpoint did not bound the replay", tail.EntriesReplayed, full.EntriesReplayed)
	}
	if alloctest.RaceEnabled {
		return
	}
	if ratio > recoveryMaxRatio {
		t.Errorf("scan and replay of the %.0f%% tail took %v, %.2fx the full scan's %v (ceiling %.2fx)",
			recoveryTailFrac*100, tail.Scan, ratio, full.Scan, recoveryMaxRatio)
	}
}
