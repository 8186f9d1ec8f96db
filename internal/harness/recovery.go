package harness

import (
	"time"

	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/seg"
)

// RecoveryPoint is one point of the recovery-time-versus-delta curve:
// an image whose log tail beyond the newest checkpoint covers a given
// fraction of the history, and its mount.
type RecoveryPoint struct {
	ChainDepth       int           // delta records on the mounted chain
	SegmentsReplayed int           // segments scanned beyond the checkpoint
	EntriesReplayed  int           // summary entries replayed
	Recover          time.Duration // wall time of the whole mount, best of bestOf mounts
	Scan             time.Duration // of it, window scan + replay (RecoveryReport.Scan), best of the same mounts
}

// recoveryLayout is a mid-sized format: big enough that a full-log
// scan costs measurable decode work, small enough to rebuild per
// point. ~34 MB.
func recoveryLayout() seg.Layout {
	return seg.Layout{BlockSize: 4096, SegBytes: 1 << 17, NumSegs: 512, MaxBlocks: 1 << 16, MaxLists: 4096}
}

// RunRecoveryPoint builds an image holding a committed history of
// `units` overwrite units whose log tail beyond the newest checkpoint
// is deltaFrac of it — 1.0 is no checkpoint, the full-scan baseline —
// and measures the wall time of mounting it, and of the part of a mount
// the checkpoint bounds. Checkpoints before the cut land every units/8
// committed units with a bounded chain (CkptCompactEvery 4), so the
// mounted image carries a realistic base+delta chain, not a fresh base.
// With O(delta) recovery the scan time must fall roughly linearly with
// the tail fraction; loading the checkpoint and the sweep follow the live
// state, which is the same at every point.
func RunRecoveryPoint(units int, deltaFrac float64) (RecoveryPoint, error) {
	var pt RecoveryPoint
	img, err := buildRecoveryImage(units, deltaFrac)
	if err != nil {
		return pt, err
	}
	p := core.Params{CheckpointEvery: -1, CkptCompactEvery: 4}
	for rep := 0; rep < bestOf; rep++ {
		dev := disk.FromImage(img, disk.Geometry{}) // the image copy is outside the clock
		start := time.Now()
		_, rpt, err := core.OpenReport(dev, p)
		elapsed := time.Since(start)
		if err != nil {
			return pt, err
		}
		if rep == 0 || elapsed < pt.Recover {
			pt.Recover = elapsed
		}
		if rep == 0 || rpt.Scan < pt.Scan {
			pt.Scan = rpt.Scan
		}
		pt.ChainDepth = rpt.DeltaChainDepth
		pt.SegmentsReplayed = rpt.SegmentsReplayed
		pt.EntriesReplayed = rpt.EntriesReplayed
	}
	return pt, nil
}

// buildRecoveryImage builds a fixed working set (so the checkpoint
// tables — an O(live-state) mount cost every configuration pays
// equally — stay the same size at every point), then runs a
// rewrite-heavy history of `units` committed overwrite units and
// leaves the final deltaFrac of it beyond the newest checkpoint.
// deltaFrac 1.0 means no checkpoint after the working set: the
// full-log-scan baseline.
func buildRecoveryImage(units int, deltaFrac float64) ([]byte, error) {
	l := recoveryLayout()
	p := core.Params{Layout: l, CheckpointEvery: -1, CkptCompactEvery: 4}
	dev := disk.NewMem(l.DiskBytes())
	d, err := core.Format(dev, p)
	if err != nil {
		return nil, err
	}
	const nLists, blocksPer = 40, 12
	var blocks []core.BlockID
	for li := 0; li < nLists; li++ {
		lst, err := d.NewList(seg.SimpleARU)
		if err != nil {
			return nil, err
		}
		for i := 0; i < blocksPer; i++ {
			b, err := d.NewBlock(seg.SimpleARU, lst, core.NilBlock)
			if err != nil {
				return nil, err
			}
			blocks = append(blocks, b)
		}
	}
	if err := d.Flush(); err != nil {
		return nil, err
	}
	if err := d.Checkpoint(); err != nil {
		return nil, err
	}

	cut := units - int(float64(units)*deltaFrac)
	ckptEvery := units / 8
	if ckptEvery < 1 {
		ckptEvery = 1
	}
	payload := make([]byte, l.BlockSize)
	for u := 0; u < units; u++ {
		aru, err := d.BeginARU()
		if err != nil {
			return nil, err
		}
		for i := 0; i < 3; i++ {
			payload[0], payload[1] = byte(u), byte(i)
			if err := d.Write(aru, blocks[(u*3+i)%len(blocks)], payload); err != nil {
				return nil, err
			}
		}
		if err := d.EndARU(aru); err != nil {
			return nil, err
		}
		if (u+1)%24 == 0 {
			if err := d.Flush(); err != nil {
				return nil, err
			}
		}
		if u < cut && (u+1)%ckptEvery == 0 {
			if err := d.Flush(); err != nil {
				return nil, err
			}
			if err := d.Checkpoint(); err != nil {
				return nil, err
			}
		}
	}
	if err := d.Flush(); err != nil {
		return nil, err
	}
	return dev.Image(), nil
}
