package aru

import (
	"aru/internal/shard"
)

// ShardedDisk is an N-way sharded logical disk: one full LLD engine
// per device plus a coordinator log, presenting the ordinary LD
// surface. Block and list identifiers route deterministically to
// shards; an ARU that touches one shard commits on that engine's fast
// path, one that touches several commits with two-phase commit
// against the coordinator log (durable at EndARU return). See
// aru/internal/shard.
type ShardedDisk = shard.Disk

// ShardOptions configures a sharded disk; ShardOptions.Params applies
// to every shard engine.
type ShardOptions = shard.Options

// ShardedStats extends the engine counters with 2PC and per-shard
// detail; see (*ShardedDisk).ShardStats.
type ShardedStats = shard.Stats

// ShardedSnapshot is a pinned read-only cut of a sharded disk: one
// epoch per shard, validated against the 2PC apply window and retried
// so that it shows no cross-shard unit partially applied; only after a
// bounded run of collisions with concurrent 2PC traffic is the cut
// taken as it stands. Acquire one with (*ShardedDisk).AcquireSnapshot.
type ShardedSnapshot = shard.Snapshot

// Cross-shard errors, re-exported for errors.Is tests.
var (
	// ErrCrossShardMove rejects MoveBlock between lists on different
	// shards (a block's identity is bound to its shard).
	ErrCrossShardMove = shard.ErrCrossShardMove
	// ErrCoordFull reports a full coordinator log; Checkpoint reclaims
	// it.
	ErrCoordFull = shard.ErrCoordFull
)

// ShardCoordBytes returns the device capacity a coordinator log needs
// to hold the given number of commit records.
func ShardCoordBytes(records int) int64 { return shard.CoordBytes(records) }

// FormatSharded initializes devs (one per shard) and the coordinator
// device coord, returning a fresh sharded disk.
func FormatSharded(devs []Device, coord Device, o ShardOptions) (*ShardedDisk, error) {
	return shard.Format(devs, coord, o)
}

// OpenSharded mounts a sharded disk, running full multi-shard crash
// recovery: each shard recovers its log, and in-doubt cross-shard
// prepares are resolved against the coordinator log (commit record
// present → redo; absent → presumed abort, tracelessly).
func OpenSharded(devs []Device, coord Device, o ShardOptions) (*ShardedDisk, error) {
	d, _, err := shard.OpenReport(devs, coord, o)
	return d, err
}

// OpenShardedReport is OpenSharded plus each shard's recovery report.
func OpenShardedReport(devs []Device, coord Device, o ShardOptions) (*ShardedDisk, []RecoveryReport, error) {
	return shard.OpenReport(devs, coord, o)
}
