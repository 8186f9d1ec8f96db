package harness

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/seg"
)

// The read-path contention experiment (DESIGN.md §16). Unlike the
// paper-shape experiments, this one measures real wall-clock time on an
// in-memory device: the object under test is the epoch-based MVCC read
// path's locking discipline, not the disk model. N reader goroutines
// hammer committed-state reads while a committer continuously runs
// small durable ARUs — exactly the schedule where a read path that
// touched the engine mutex would contend — and the run is a mechanical
// proof of the zero-mutex-acquisition claim: it executes under a
// full-rate runtime contention profile
// (runtime.SetBlockProfileRate(1), which attributes every blocking
// event to the stack of the goroutine that blocked), and any profile
// record carrying a read-path frame is reported.

// ReadScaleResult is one measured run plus the contention verdict.
type ReadScaleResult struct {
	Ops     int64         // committed-state reads completed
	Elapsed time.Duration // wall time of the read phase
	Commits int64         // ARUs the background committer landed meanwhile
	// ContendedFrames lists read-path functions that appeared in the
	// contention profile. Must be empty: any entry means a reader
	// blocked on a lock.
	ContendedFrames []string
	// ProfileEvents counts all contention-profile records captured
	// during the run, read path or not. Must be positive — the
	// committer's durable commits always block somewhere (group-commit
	// waits at minimum), so zero means the profile never ran and the
	// empty ContendedFrames would be vacuous.
	ProfileEvents int
}

// PerSec returns aggregate reads per second of wall time.
func (r ReadScaleResult) PerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// readPathSymbols are the committed-read entry points and the snapshot
// machinery they run on. A contention-profile record whose stack
// contains any of these means a reader blocked inside the read path.
var readPathSymbols = []string{
	"core.(*LLD).Read",
	"core.(*LLD).ListBlocks",
	"core.(*LLD).Lists",
	"core.(*LLD).StatBlock",
	"core.(*LLD).Stats",
	"core.(*LLD).AcquireSnapshot",
	"core.(*LLD).acquireSnap",
	"core.(*Snapshot)",
}

// RunReadScale measures committed-read throughput of `readers`
// goroutines, opsPerReader reads each, against a continuously
// committing writer, then scans the contention profile for read-path
// frames.
func RunReadScale(readers, opsPerReader int) (ReadScaleResult, error) {
	var res ReadScaleResult

	l := seg.DefaultLayout(64) // 32 MB in-memory format
	d, err := core.Format(disk.NewMem(l.DiskBytes()), core.Params{Layout: l})
	if err != nil {
		return res, err
	}
	defer d.Close()
	lst, err := d.NewList(seg.SimpleARU)
	if err != nil {
		return res, err
	}
	const nBlocks = 256
	blocks := make([]core.BlockID, nBlocks)
	buf := make([]byte, d.BlockSize())
	for i := range blocks {
		b, err := d.NewBlock(seg.SimpleARU, lst, core.NilBlock)
		if err != nil {
			return res, err
		}
		buf[0] = byte(i)
		if err := d.Write(seg.SimpleARU, b, buf); err != nil {
			return res, err
		}
		blocks[i] = b
	}
	if err := d.Flush(); err != nil {
		return res, err
	}

	// Full-rate contention profile for the whole run. The rate is
	// process-global; switch it back off on the way out.
	runtime.SetBlockProfileRate(1)
	defer runtime.SetBlockProfileRate(0)

	// The committer keeps the write lock hot: small ARUs against a
	// private list, committed durably so epochs publish at both the
	// commit and the flush boundary.
	stop := make(chan struct{})
	var commits int64
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		clst, err := d.NewList(seg.SimpleARU)
		if err != nil {
			return
		}
		cbuf := make([]byte, d.BlockSize())
		var cblk core.BlockID
		for {
			select {
			case <-stop:
				return
			default:
			}
			a, err := d.BeginARU()
			if err != nil {
				return
			}
			if cblk == core.NilBlock {
				if cblk, err = d.NewBlock(a, clst, core.NilBlock); err != nil {
					return
				}
			}
			cbuf[0] = byte(commits)
			if err := d.Write(a, cblk, cbuf); err != nil {
				return
			}
			if err := d.EndARU(a); err != nil {
				return
			}
			commits++
			if commits%16 == 0 {
				if err := d.Flush(); err != nil {
					return
				}
			}
		}
	}()

	var rwg sync.WaitGroup
	errCh := make(chan error, readers)
	start := time.Now()
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			dst := make([]byte, d.BlockSize())
			for i := 0; i < opsPerReader; i++ {
				if err := d.Read(seg.SimpleARU, blocks[(r+i)%nBlocks], dst); err != nil {
					errCh <- err
					return
				}
			}
		}(r)
	}
	rwg.Wait()
	res.Elapsed = time.Since(start)
	close(stop)
	cwg.Wait()
	select {
	case err := <-errCh:
		return res, err
	default:
	}
	res.Ops = int64(readers) * int64(opsPerReader)
	res.Commits = commits
	res.ContendedFrames, res.ProfileEvents = contendedReadPathFrames()
	return res, nil
}

// contendedReadPathFrames scans the accumulated contention profile for
// read-path symbols. The block profile attributes each event to the
// goroutine that blocked, so a record is attributable: committer
// contention (EndARU vs Flush, say) carries committer frames and is
// expected; a read-path frame means a reader waited on a lock.
func contendedReadPathFrames() ([]string, int) {
	records := make([]runtime.BlockProfileRecord, 64)
	for {
		n, ok := runtime.BlockProfile(records)
		if ok {
			records = records[:n]
			break
		}
		records = make([]runtime.BlockProfileRecord, 2*len(records))
	}
	seen := map[string]bool{}
	var out []string
	for _, rec := range records {
		frames := runtime.CallersFrames(rec.Stack())
		for {
			f, more := frames.Next()
			if matchReadPath(f.Function) && !seen[f.Function] {
				seen[f.Function] = true
				out = append(out, f.Function)
			}
			if !more {
				break
			}
		}
	}
	return out, len(records)
}

// matchReadPath reports whether a symbolized function name belongs to
// the committed-read path.
func matchReadPath(fn string) bool {
	for _, sym := range readPathSymbols {
		if strings.Contains(fn, sym) {
			return true
		}
	}
	return false
}

// TestMatchReadPath pins the frame classifier: read-path entry points
// and snapshot machinery match, the write/commit path does not.
func TestMatchReadPath(t *testing.T) {
	hits := []string{
		"aru/internal/core.(*LLD).Read",
		"aru/internal/core.(*LLD).ListBlocks",
		"aru/internal/core.(*LLD).Stats",
		"aru/internal/core.(*LLD).acquireSnap",
		"aru/internal/core.(*LLD).AcquireSnapshot",
		"aru/internal/core.(*Snapshot).Read",
		"aru/internal/core.(*Snapshot).ListBlocks",
	}
	for _, fn := range hits {
		if !matchReadPath(fn) {
			t.Errorf("%s not classified as read path", fn)
		}
	}
	misses := []string{
		"aru/internal/core.(*LLD).EndARU",
		"aru/internal/core.(*LLD).Write",
		"aru/internal/core.(*LLD).Flush",
		"aru/internal/core.(*LLD).publishLocked",
		"aru/internal/disk.(*Mem).ReadAt",
		"aru/internal/harness.RunReadScale",
	}
	for _, fn := range misses {
		if matchReadPath(fn) {
			t.Errorf("%s wrongly classified as read path", fn)
		}
	}
}
