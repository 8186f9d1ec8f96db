package core

import "sync/atomic"

// lldStats is the engine-internal, atomically updated mirror of Stats.
//
// Counters live in sync/atomic cells so that lock-free readers (Read
// counts Reads and the cache counters) can count without contending on
// — or racing with — each other. Writers update them under the write
// lock, but through the same atomic cells, so no load ever tears.
//
// Field names match Stats one-for-one; snapshot() is the only
// conversion point, so adding a counter fails to compile until both
// sides agree.
type lldStats struct {
	Reads, Writes              atomic.Int64
	CoalescedWrites            atomic.Int64
	NewBlocks, DeleteBlocks    atomic.Int64
	NewLists, DeleteLists      atomic.Int64
	ARUsBegun, ARUsCommitted   atomic.Int64
	ARUsAborted                atomic.Int64
	ARUsPrepared               atomic.Int64
	SegmentsWritten            atomic.Int64
	ChunksWritten              atomic.Int64
	SegmentBytesWritten        atomic.Int64
	SegmentsCleaned            atomic.Int64
	BlocksRelocated            atomic.Int64
	Checkpoints                atomic.Int64
	CkptDeltas                 atomic.Int64
	MergeFallbacks             atomic.Int64
	LeakedBlocksFreed          atomic.Int64
	ShadowRecords, AltRecords  atomic.Int64
	ShadowCreated              atomic.Int64
	CommittedCreated           atomic.Int64
	RecordsPromoted            atomic.Int64
	BlocksMaterialized         atomic.Int64
	PrevVersionsEmitted        atomic.Int64
	ListOpsReplayed            atomic.Int64
	MovesExecuted              atomic.Int64
	CacheHits, CacheMisses     atomic.Int64
	PredecessorSearchSteps     atomic.Int64
	EntriesLogged              atomic.Int64
	RecoveredEntries           atomic.Int64
	RecoveredARUs, DroppedARUs atomic.Int64
	Flushes                    atomic.Int64
	CommitBatches              atomic.Int64
	BatchedCommits             atomic.Int64
	EpochsPublished            atomic.Int64
	SnapshotsPurged            atomic.Int64
	PurgeRetries               atomic.Int64
}

// snapshot loads every counter into a plain Stats value. Each load is
// atomic (no torn reads); see LLD.Stats for the coherence the snapshot
// provides as a whole.
func (s *lldStats) snapshot() Stats {
	return Stats{
		Reads:                  s.Reads.Load(),
		Writes:                 s.Writes.Load(),
		CoalescedWrites:        s.CoalescedWrites.Load(),
		NewBlocks:              s.NewBlocks.Load(),
		DeleteBlocks:           s.DeleteBlocks.Load(),
		NewLists:               s.NewLists.Load(),
		DeleteLists:            s.DeleteLists.Load(),
		ARUsBegun:              s.ARUsBegun.Load(),
		ARUsCommitted:          s.ARUsCommitted.Load(),
		ARUsAborted:            s.ARUsAborted.Load(),
		ARUsPrepared:           s.ARUsPrepared.Load(),
		SegmentsWritten:        s.SegmentsWritten.Load(),
		ChunksWritten:          s.ChunksWritten.Load(),
		SegmentBytesWritten:    s.SegmentBytesWritten.Load(),
		SegmentsCleaned:        s.SegmentsCleaned.Load(),
		BlocksRelocated:        s.BlocksRelocated.Load(),
		Checkpoints:            s.Checkpoints.Load(),
		CkptDeltas:             s.CkptDeltas.Load(),
		MergeFallbacks:         s.MergeFallbacks.Load(),
		LeakedBlocksFreed:      s.LeakedBlocksFreed.Load(),
		ShadowRecords:          s.ShadowRecords.Load(),
		AltRecords:             s.AltRecords.Load(),
		ShadowCreated:          s.ShadowCreated.Load(),
		CommittedCreated:       s.CommittedCreated.Load(),
		RecordsPromoted:        s.RecordsPromoted.Load(),
		BlocksMaterialized:     s.BlocksMaterialized.Load(),
		PrevVersionsEmitted:    s.PrevVersionsEmitted.Load(),
		ListOpsReplayed:        s.ListOpsReplayed.Load(),
		MovesExecuted:          s.MovesExecuted.Load(),
		CacheHits:              s.CacheHits.Load(),
		CacheMisses:            s.CacheMisses.Load(),
		PredecessorSearchSteps: s.PredecessorSearchSteps.Load(),
		EntriesLogged:          s.EntriesLogged.Load(),
		RecoveredEntries:       s.RecoveredEntries.Load(),
		RecoveredARUs:          s.RecoveredARUs.Load(),
		DroppedARUs:            s.DroppedARUs.Load(),
		Flushes:                s.Flushes.Load(),
		CommitBatches:          s.CommitBatches.Load(),
		BatchedCommits:         s.BatchedCommits.Load(),
		EpochsPublished:        s.EpochsPublished.Load(),
		SnapshotsPurged:        s.SnapshotsPurged.Load(),
		PurgeRetries:           s.PurgeRetries.Load(),
		// SnapshotAge is a gauge computed by LLD.Stats from the epoch
		// counters, not a mirrored cell.
	}
}
