package harness

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"aru/internal/workload"
)

// LargeResult holds one build's Figure 6 row: MB/s for the five phases
// over a 78.125 MB file.
type LargeResult struct {
	Spec   VariantSpec
	File   workload.LargeFile
	Write1 Phase // sequential write
	Read1  Phase // sequential read
	Write2 Phase // random re-write
	Read2  Phase // random read
	Read3  Phase // sequential re-read
}

// Phases returns the five phases in paper order.
func (r LargeResult) Phases() []Phase {
	return []Phase{r.Write1, r.Read1, r.Write2, r.Read2, r.Read3}
}

// RunLargeFile runs the paper's large-file micro-benchmark (§5.2,
// Figure 6) for one build.
func RunLargeFile(spec VariantSpec, lf workload.LargeFile, o Options) (LargeResult, error) {
	o = o.withDefaults()
	lf = lf.Scale(o.Scale)
	dev, ld, fs, err := setup(spec, o)
	if err != nil {
		return LargeResult{}, err
	}
	defer func() { _ = ld.Close() }()

	res := LargeResult{Spec: spec, File: lf}
	f, err := fs.Create("/big")
	if err != nil {
		return LargeResult{}, err
	}
	if err := fs.Sync(); err != nil {
		return LargeResult{}, err
	}

	m := newMeter(dev, ld, spec.Variant)
	buf := make([]byte, lf.IOSize)
	n := lf.NumIOs()
	total := int64(n) * int64(lf.IOSize)

	// write1: sequential write.
	m.reset()
	for i := 0; i < n; i++ {
		lf.Payload(i, 0, buf)
		if _, err := f.WriteAt(buf, int64(i)*int64(lf.IOSize)); err != nil {
			return LargeResult{}, fmt.Errorf("write1 unit %d: %w", i, err)
		}
		m.addFSCalls(1)
	}
	if err := fs.Sync(); err != nil {
		return LargeResult{}, err
	}
	res.Write1 = m.phase("write1", int64(n), total)

	readPhase := func(name string, order []int, gen int) (Phase, error) {
		m.reset()
		want := make([]byte, lf.IOSize)
		for _, i := range order {
			if _, err := f.ReadAt(buf, int64(i)*int64(lf.IOSize)); err != nil && !errors.Is(err, io.EOF) {
				return Phase{}, fmt.Errorf("%s unit %d: %w", name, i, err)
			}
			if o.Verify {
				lf.Payload(i, gen, want)
				if !bytes.Equal(buf, want) {
					return Phase{}, fmt.Errorf("harness: %s payload mismatch at unit %d", name, i)
				}
			}
			m.addFSCalls(1)
		}
		return m.phase(name, int64(n), total), nil
	}
	seq := make([]int, n)
	for i := range seq {
		seq[i] = i
	}

	// read1: sequential read.
	if res.Read1, err = readPhase("read1", seq, 0); err != nil {
		return LargeResult{}, err
	}

	// write2: random-order re-write.
	m.reset()
	for _, i := range lf.WriteOrder() {
		lf.Payload(i, 1, buf)
		if _, err := f.WriteAt(buf, int64(i)*int64(lf.IOSize)); err != nil {
			return LargeResult{}, fmt.Errorf("write2 unit %d: %w", i, err)
		}
		m.addFSCalls(1)
	}
	if err := fs.Sync(); err != nil {
		return LargeResult{}, err
	}
	res.Write2 = m.phase("write2", int64(n), total)

	// read2: random-order read.
	if res.Read2, err = readPhase("read2", lf.ReadOrder(), 1); err != nil {
		return LargeResult{}, err
	}

	// read3: sequential re-read (now physically scattered by write2).
	if res.Read3, err = readPhase("read3", seq, 1); err != nil {
		return LargeResult{}, err
	}
	return res, nil
}

// Fig6Result is the full Figure 6: old and new builds over the
// large-file workload.
type Fig6Result struct {
	Old LargeResult
	New LargeResult
}

// RunFig6 regenerates Figure 6. Only "old" and "new" appear (deletion
// policy is irrelevant: nothing is deleted).
func RunFig6(o Options) (Fig6Result, error) {
	specs := Table1()
	old, err := RunLargeFile(specs[0], workload.PaperLarge(), o)
	if err != nil {
		return Fig6Result{}, fmt.Errorf("old: %w", err)
	}
	nw, err := RunLargeFile(specs[1], workload.PaperLarge(), o)
	if err != nil {
		return Fig6Result{}, fmt.Errorf("new: %w", err)
	}
	return Fig6Result{Old: old, New: nw}, nil
}
