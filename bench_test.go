package aru_test

// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5), plus micro-benchmarks and ablations.
//
// The figure benchmarks (BenchmarkFig5*, BenchmarkFig6, and the
// simulated half of BenchmarkARULatency) run the deterministic harness
// — simulated HP C3010 disk time plus the SPARC-5/70 CPU cost model —
// and report the paper's metrics (files/s, MB/s, µs/ARU) via
// b.ReportMetric; their ns/op measures host execution, not the modeled
// testbed. The micro-benchmarks measure real ns/op of this
// implementation on an in-memory device.
//
// Run everything:
//
//	go test -bench=. -benchmem ./...

import (
	"fmt"
	"testing"

	"aru"
	"aru/internal/harness"
	"aru/internal/workload"
)

// benchScale keeps the harness-based benchmarks quick; the shapes match
// the full-scale runs recorded in EXPERIMENTS.md.
const benchScale = 10

// BenchmarkFig5Small1K regenerates Figure 5's 10,000 × 1 KB columns.
func BenchmarkFig5Small1K(b *testing.B) {
	benchFig5(b, workload.PaperSmall1K())
}

// BenchmarkFig5Small10K regenerates Figure 5's 1,000 × 10 KB columns.
func BenchmarkFig5Small10K(b *testing.B) {
	benchFig5(b, workload.PaperSmall10K())
}

func benchFig5(b *testing.B, files workload.SmallFiles) {
	for _, spec := range harness.Table1() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			var res harness.SmallResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = harness.RunSmallFiles(spec, files, harness.Options{Scale: benchScale})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.CreateWrite.PerSec(), "create+write_files/s")
			b.ReportMetric(res.Read.PerSec(), "read_files/s")
			b.ReportMetric(res.Delete.PerSec(), "delete_files/s")
		})
	}
}

// BenchmarkFig6LargeFile regenerates Figure 6: MB/s for write1, read1,
// write2, read2 and read3 over the 78.125 MB file, old vs new build.
func BenchmarkFig6LargeFile(b *testing.B) {
	specs := harness.Table1()
	for _, spec := range specs[:2] { // "old" and "new"
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			var res harness.LargeResult
			var err error
			for i := 0; i < b.N; i++ {
				// The cache is disabled: at bench scale the whole file
				// would fit in it, hiding the disk-bound read phases
				// (at full scale the 78 MB file exceeds it anyway).
				res, err = harness.RunLargeFile(spec, workload.PaperLarge(),
					harness.Options{Scale: benchScale, CacheBlocks: -1})
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, p := range res.Phases() {
				b.ReportMetric(p.MBPerSec(), p.Name+"_MB/s")
			}
		})
	}
}

// BenchmarkARULatency regenerates the §5.3 experiment two ways: "sim"
// reports the calibrated-model latency the paper measured (78.47 µs on
// the SPARC-5/70); "real" measures this implementation's actual
// Begin/End cost per pair on the host.
func BenchmarkARULatency(b *testing.B) {
	b.Run("sim", func(b *testing.B) {
		var res harness.ARULatencyResult
		var err error
		for i := 0; i < b.N; i++ {
			res, err = harness.RunARULatency(harness.Table1()[1], 500000, harness.Options{Scale: benchScale})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.PerARU.Nanoseconds())/1000, "sim_µs/ARU")
		b.ReportMetric(float64(res.SegmentsWritten), "segments")
	})
	b.Run("real", func(b *testing.B) {
		d := benchDisk(b, 256)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a, err := d.BeginARU()
			if err != nil {
				b.Fatal(err)
			}
			if err := d.EndARU(a); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchDisk formats a fresh in-memory logical disk with numSegs
// half-megabyte segments.
func benchDisk(b *testing.B, numSegs int) *aru.Disk {
	b.Helper()
	layout := aru.DefaultLayout(numSegs)
	dev := aru.NewMemDevice(layout.DiskBytes())
	d, err := aru.Format(dev, aru.Params{Layout: layout})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkWrite measures a simple (non-ARU) block write, the hottest
// operation of the interface.
func BenchmarkWrite(b *testing.B) {
	d := benchDisk(b, 512)
	lst, _ := d.NewList(aru.Simple)
	blk, _ := d.NewBlock(aru.Simple, lst, aru.NilBlock)
	buf := make([]byte, d.BlockSize())
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf[0] = byte(i)
		if err := d.Write(aru.Simple, blk, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRead measures a committed-state read served from memory.
func BenchmarkRead(b *testing.B) {
	d := benchDisk(b, 64)
	lst, _ := d.NewList(aru.Simple)
	blk, _ := d.NewBlock(aru.Simple, lst, aru.NilBlock)
	buf := make([]byte, d.BlockSize())
	if err := d.Write(aru.Simple, blk, buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Read(aru.Simple, blk, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelRead measures committed-state read throughput with
// one reader per GOMAXPROCS worker, all hitting a flushed working set
// that fits the read cache. This is the scaling benchmark for the
// read-path locking discipline: with the single global mutex the
// readers serialize; with the RWMutex + striped-cache read path they
// proceed in parallel.
func BenchmarkParallelRead(b *testing.B) {
	d := benchDisk(b, 64)
	lst, _ := d.NewList(aru.Simple)
	const nBlocks = 512
	blks := make([]aru.BlockID, nBlocks)
	buf := make([]byte, d.BlockSize())
	for i := range blks {
		blk, err := d.NewBlock(aru.Simple, lst, aru.NilBlock)
		if err != nil {
			b.Fatal(err)
		}
		buf[0] = byte(i)
		if err := d.Write(aru.Simple, blk, buf); err != nil {
			b.Fatal(err)
		}
		blks[i] = blk
	}
	if err := d.Flush(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(d.BlockSize()))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]byte, d.BlockSize())
		i := 0
		for pb.Next() {
			if err := d.Read(aru.Simple, blks[i%nBlocks], dst); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkMixedARUWorkload measures a read-mostly mixed workload:
// every worker mostly reads the committed state and occasionally runs a
// small committing ARU against its own private blocks. Reads should
// scale with workers; the ARU commits serialize on the write lock.
func BenchmarkMixedARUWorkload(b *testing.B) {
	d := benchDisk(b, 256)
	lst, _ := d.NewList(aru.Simple)
	const nBlocks = 256
	blks := make([]aru.BlockID, nBlocks)
	buf := make([]byte, d.BlockSize())
	for i := range blks {
		blk, err := d.NewBlock(aru.Simple, lst, aru.NilBlock)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Write(aru.Simple, blk, buf); err != nil {
			b.Fatal(err)
		}
		blks[i] = blk
	}
	if err := d.Flush(); err != nil {
		b.Fatal(err)
	}
	epochs := d.Stats().EpochsPublished
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]byte, d.BlockSize())
		i := 0
		for pb.Next() {
			if i%16 == 15 {
				a, err := d.BeginARU()
				if err != nil {
					b.Fatal(err)
				}
				dst[0] = byte(i)
				if err := d.Write(a, blks[i%nBlocks], dst); err != nil {
					b.Fatal(err)
				}
				if err := d.EndARU(a); err != nil {
					b.Fatal(err)
				}
			} else if err := d.Read(aru.Simple, blks[(i*7)%nBlocks], dst); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	reportEpochs(b, d, epochs)
}

// reportEpochs reports the MVCC epochs d published per op since the
// count was epochs: BeginARU and shadow writes publish none.
func reportEpochs(b *testing.B, d *aru.Disk, epochs int64) {
	b.ReportMetric(float64(d.Stats().EpochsPublished-epochs)/float64(b.N), "epochs/op")
}

// BenchmarkARUWriteCommit measures the full shadow-write → merge →
// replay → commit path for a three-block unit (a file-creation-sized
// ARU).
func BenchmarkARUWriteCommit(b *testing.B) {
	d := benchDisk(b, 512)
	lst, _ := d.NewList(aru.Simple)
	blks := make([]aru.BlockID, 3)
	for i := range blks {
		blks[i], _ = d.NewBlock(aru.Simple, lst, aru.NilBlock)
	}
	buf := make([]byte, d.BlockSize())
	epochs := d.Stats().EpochsPublished
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := d.BeginARU()
		if err != nil {
			b.Fatal(err)
		}
		for _, blk := range blks {
			buf[0] = byte(i)
			if err := d.Write(a, blk, buf); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.EndARU(a); err != nil {
			b.Fatal(err)
		}
	}
	reportEpochs(b, d, epochs)
}

// BenchmarkARUCommitDurable measures a one-block unit made durable
// through the group-commit broker: shadow write → merge → commit →
// seal → device write → sync, per op.
func BenchmarkARUCommitDurable(b *testing.B) {
	d := benchDisk(b, 512)
	lst, _ := d.NewList(aru.Simple)
	blk, _ := d.NewBlock(aru.Simple, lst, aru.NilBlock)
	buf := make([]byte, d.BlockSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := d.BeginARU()
		if err != nil {
			b.Fatal(err)
		}
		buf[0] = byte(i)
		if err := d.Write(a, blk, buf); err != nil {
			b.Fatal(err)
		}
		if err := d.CommitDurable(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFSCreateDelete measures a Minix file create+delete pair —
// the meta-data-heavy operations the paper's Figure 5 targets.
func BenchmarkFSCreateDelete(b *testing.B) {
	for _, pol := range []aru.DeletePolicy{aru.DeleteBlocksFirst, aru.DeleteListFirst} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			d := benchDisk(b, 512)
			fs, err := aru.MkFS(d, aru.FSConfig{NumInodes: 4096, Policy: pol})
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name := fmt.Sprintf("/f%d", i%512)
				f, err := fs.Create(name)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := f.WriteAt(payload, 0); err != nil {
					b.Fatal(err)
				}
				if err := fs.Remove(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecovery measures crash recovery of a populated disk (log
// scan + table reconstruction + leak sweep).
func BenchmarkRecovery(b *testing.B) {
	layout := aru.DefaultLayout(64)
	dev := aru.NewMemDevice(layout.DiskBytes())
	d, err := aru.Format(dev, aru.Params{Layout: layout, CheckpointEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, d.BlockSize())
	for i := 0; i < 200; i++ {
		a, _ := d.BeginARU()
		lst, _ := d.NewList(a)
		for j := 0; j < 3; j++ {
			blk, err := d.NewBlock(a, lst, aru.NilBlock)
			if err != nil {
				b.Fatal(err)
			}
			if err := d.Write(a, blk, buf); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.EndARU(a); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		b.Fatal(err)
	}
	img := dev.Image()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aru.Open(dev.Reopen(img), aru.Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointInterval is the ablation for the checkpoint
// frequency: more frequent checkpoints shrink the recovery replay
// window but cost extra I/O during normal operation.
func BenchmarkCheckpointInterval(b *testing.B) {
	for _, every := range []int{4, 32, 128} {
		every := every
		b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
			var segsWritten, ckpts float64
			for i := 0; i < b.N; i++ {
				layout := aru.DefaultLayout(160)
				dev := aru.NewMemDevice(layout.DiskBytes())
				d, err := aru.Format(dev, aru.Params{Layout: layout, CheckpointEvery: every})
				if err != nil {
					b.Fatal(err)
				}
				buf := make([]byte, d.BlockSize())
				for r := 0; r < 1500; r++ {
					a, _ := d.BeginARU()
					lst, _ := d.NewList(a)
					for j := 0; j < 8; j++ {
						blk, err := d.NewBlock(a, lst, aru.NilBlock)
						if err != nil {
							b.Fatal(err)
						}
						if err := d.Write(a, blk, buf); err != nil {
							b.Fatal(err)
						}
					}
					if err := d.EndARU(a); err != nil {
						b.Fatal(err)
					}
				}
				if err := d.Flush(); err != nil {
					b.Fatal(err)
				}
				st := d.Stats()
				segsWritten = float64(st.SegmentsWritten)
				ckpts = float64(st.Checkpoints)
			}
			b.ReportMetric(segsWritten, "segments")
			b.ReportMetric(ckpts, "checkpoints")
		})
	}
}

// BenchmarkTxnOverhead compares a three-block unit committed as a raw
// ARU against the same unit under the transaction layer (locks +
// wait-die bookkeeping), quantifying what §7's client-side isolation
// costs on top of the disk system's atomicity.
func BenchmarkTxnOverhead(b *testing.B) {
	b.Run("raw-aru", func(b *testing.B) {
		d := benchDisk(b, 512)
		lst, _ := d.NewList(aru.Simple)
		blks := make([]aru.BlockID, 3)
		for i := range blks {
			blks[i], _ = d.NewBlock(aru.Simple, lst, aru.NilBlock)
		}
		buf := make([]byte, d.BlockSize())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a, err := d.BeginARU()
			if err != nil {
				b.Fatal(err)
			}
			for _, blk := range blks {
				if err := d.Write(a, blk, buf); err != nil {
					b.Fatal(err)
				}
			}
			if err := d.EndARU(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("transaction", func(b *testing.B) {
		d := benchDisk(b, 512)
		m := aru.NewTxnManager(d)
		lst, _ := d.NewList(aru.Simple)
		blks := make([]aru.BlockID, 3)
		for i := range blks {
			blks[i], _ = d.NewBlock(aru.Simple, lst, aru.NilBlock)
		}
		buf := make([]byte, d.BlockSize())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := m.Run(false, func(tx *aru.Txn) error {
				for _, blk := range blks {
					if err := tx.Write(blk, buf); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCoalescing quantifies the seal-time materialization win on
// a meta-data-heavy workload: the fraction of client writes absorbed in
// memory (never costing a log slot) and the resulting write
// amplification (materialized blocks per client write).
func BenchmarkCoalescing(b *testing.B) {
	var coalesced, writes, materialized float64
	for i := 0; i < b.N; i++ {
		d := benchDisk(b, 256)
		fs, err := aru.MkFS(d, aru.FSConfig{NumInodes: 2048})
		if err != nil {
			b.Fatal(err)
		}
		payload := make([]byte, 1024)
		for j := 0; j < 400; j++ {
			f, err := fs.Create(fmt.Sprintf("/f%03d", j))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.WriteAt(payload, 0); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.Flush(); err != nil {
			b.Fatal(err)
		}
		st := d.Stats()
		coalesced = float64(st.CoalescedWrites)
		writes = float64(st.Writes)
		materialized = float64(st.BlocksMaterialized)
	}
	b.ReportMetric(coalesced/writes*100, "coalesced_%")
	b.ReportMetric(materialized/writes, "log_slots/write")
}

// benchDiskTraced is benchDisk with a Tracer attached, for measuring
// the enabled-path overhead of the observability layer.
func benchDiskTraced(b *testing.B, numSegs int) *aru.Disk {
	b.Helper()
	layout := aru.DefaultLayout(numSegs)
	dev := aru.NewMemDevice(layout.DiskBytes())
	d, err := aru.Format(dev, aru.Params{Layout: layout, Tracer: aru.NewTracer(aru.TracerConfig{})})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkParallelReadTraced is BenchmarkParallelRead with tracing
// enabled: the read path pays one histogram observation and one ring
// emit per call. Compare against BenchmarkParallelRead for the
// enabled-path overhead; the disabled path costs only a nil check.
func BenchmarkParallelReadTraced(b *testing.B) {
	d := benchDiskTraced(b, 64)
	lst, _ := d.NewList(aru.Simple)
	const nBlocks = 512
	blks := make([]aru.BlockID, nBlocks)
	buf := make([]byte, d.BlockSize())
	for i := range blks {
		blk, err := d.NewBlock(aru.Simple, lst, aru.NilBlock)
		if err != nil {
			b.Fatal(err)
		}
		buf[0] = byte(i)
		if err := d.Write(aru.Simple, blk, buf); err != nil {
			b.Fatal(err)
		}
		blks[i] = blk
	}
	if err := d.Flush(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(d.BlockSize()))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]byte, d.BlockSize())
		i := 0
		for pb.Next() {
			if err := d.Read(aru.Simple, blks[i%nBlocks], dst); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkMixedARUWorkloadTraced is BenchmarkMixedARUWorkload with
// tracing enabled.
func BenchmarkMixedARUWorkloadTraced(b *testing.B) {
	d := benchDiskTraced(b, 256)
	lst, _ := d.NewList(aru.Simple)
	const nBlocks = 256
	blks := make([]aru.BlockID, nBlocks)
	buf := make([]byte, d.BlockSize())
	for i := range blks {
		blk, err := d.NewBlock(aru.Simple, lst, aru.NilBlock)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Write(aru.Simple, blk, buf); err != nil {
			b.Fatal(err)
		}
		blks[i] = blk
	}
	if err := d.Flush(); err != nil {
		b.Fatal(err)
	}
	epochs := d.Stats().EpochsPublished
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]byte, d.BlockSize())
		i := 0
		for pb.Next() {
			if i%16 == 15 {
				a, err := d.BeginARU()
				if err != nil {
					b.Fatal(err)
				}
				dst[0] = byte(i)
				if err := d.Write(a, blks[i%nBlocks], dst); err != nil {
					b.Fatal(err)
				}
				if err := d.EndARU(a); err != nil {
					b.Fatal(err)
				}
			} else if err := d.Read(aru.Simple, blks[(i*7)%nBlocks], dst); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	reportEpochs(b, d, epochs)
}
