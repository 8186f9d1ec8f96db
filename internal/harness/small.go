package harness

import (
	"bytes"
	"fmt"

	"aru/internal/workload"
)

// SmallResult holds one build's Figure 5 row: files/second for creating
// and writing (C+W), reading (R) and deleting (D) one small-file
// population.
type SmallResult struct {
	Spec        VariantSpec
	Files       workload.SmallFiles
	CreateWrite Phase
	Read        Phase
	Delete      Phase
}

// RunSmallFiles runs the paper's small-file micro-benchmark (§5.2,
// Figure 5) for one build: create and write all files, read them all,
// then delete them all, flushing at the end of each phase.
func RunSmallFiles(spec VariantSpec, files workload.SmallFiles, o Options) (SmallResult, error) {
	o = o.withDefaults()
	files = files.Scale(o.Scale)
	dev, ld, fs, err := setup(spec, o)
	if err != nil {
		return SmallResult{}, err
	}
	defer func() { _ = ld.Close() }()

	// Setup outside measurement: the directory tree.
	for d := 0; d < files.NumDirs(); d++ {
		if err := fs.Mkdir(files.DirName(d)); err != nil {
			return SmallResult{}, err
		}
	}
	if err := fs.Sync(); err != nil {
		return SmallResult{}, err
	}

	res := SmallResult{Spec: spec, Files: files}
	m := newMeter(dev, ld, spec.Variant)
	payload := make([]byte, files.FileSize)
	totalBytes := int64(files.NumFiles) * int64(files.FileSize)

	// Phase 1: create and write.
	m.reset()
	for i := 0; i < files.NumFiles; i++ {
		files.Payload(i, payload)
		f, err := fs.Create(files.FileName(i))
		if err != nil {
			return SmallResult{}, fmt.Errorf("create %s: %w", files.FileName(i), err)
		}
		if _, err := f.WriteAt(payload, 0); err != nil {
			return SmallResult{}, err
		}
		m.addFSCalls(2)
	}
	if err := fs.Sync(); err != nil {
		return SmallResult{}, err
	}
	res.CreateWrite = m.phase("C+W", int64(files.NumFiles), totalBytes)

	// Phase 2: read.
	m.reset()
	want := make([]byte, files.FileSize)
	for i := 0; i < files.NumFiles; i++ {
		f, err := fs.Open(files.FileName(i))
		if err != nil {
			return SmallResult{}, err
		}
		got, err := f.ReadAll()
		if err != nil {
			return SmallResult{}, err
		}
		if o.Verify {
			files.Payload(i, want)
			if !bytes.Equal(got, want) {
				return SmallResult{}, fmt.Errorf("harness: payload mismatch in %s", files.FileName(i))
			}
		}
		m.addFSCalls(2)
	}
	res.Read = m.phase("R", int64(files.NumFiles), totalBytes)

	// Phase 3: delete.
	m.reset()
	for i := 0; i < files.NumFiles; i++ {
		if err := fs.Remove(files.FileName(i)); err != nil {
			return SmallResult{}, fmt.Errorf("remove %s: %w", files.FileName(i), err)
		}
		m.addFSCalls(1)
	}
	if err := fs.Sync(); err != nil {
		return SmallResult{}, err
	}
	res.Delete = m.phase("D", int64(files.NumFiles), totalBytes)
	return res, nil
}

// Fig5Result is the full Figure 5: every build crossed with both
// populations.
type Fig5Result struct {
	Small1K  []SmallResult // 10,000 × 1 KB per build
	Small10K []SmallResult // 1,000 × 10 KB per build
}

// RunFig5 regenerates Figure 5.
func RunFig5(o Options) (Fig5Result, error) {
	var res Fig5Result
	for _, spec := range Table1() {
		r, err := RunSmallFiles(spec, workload.PaperSmall1K(), o)
		if err != nil {
			return res, fmt.Errorf("%s/1K: %w", spec.Name, err)
		}
		res.Small1K = append(res.Small1K, r)
	}
	for _, spec := range Table1() {
		r, err := RunSmallFiles(spec, workload.PaperSmall10K(), o)
		if err != nil {
			return res, fmt.Errorf("%s/10K: %w", spec.Name, err)
		}
		res.Small10K = append(res.Small10K, r)
	}
	return res, nil
}
