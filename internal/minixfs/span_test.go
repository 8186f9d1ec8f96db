package minixfs

import (
	"testing"

	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/obs"
	"aru/internal/seg"
)

// TestFSOpSpanEnclosesCommit: a traced Create records exactly one fs-op
// span naming the operation, and its interval contains the
// engine-commit span of the ARU the create ran.
func TestFSOpSpanEnclosesCommit(t *testing.T) {
	layout := seg.Layout{BlockSize: 1024, SegBytes: 16384, NumSegs: 64, MaxBlocks: 4096, MaxLists: 2048}
	tr := obs.New(obs.Config{})
	ld, err := core.Format(disk.NewMem(layout.DiskBytes()), core.Params{Layout: layout, Tracer: tr})
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	fs, err := Mkfs(ld, Config{NumInodes: 64, Policy: DeleteBlocksFirst})
	if err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	before := tr.Spans()
	mark := before[len(before)-1].Seq
	if _, err := fs.Create("/a"); err != nil {
		t.Fatalf("Create: %v", err)
	}

	var ops, commits []obs.Span
	for _, s := range tr.Spans() {
		switch {
		case s.Seq <= mark:
		case s.Kind == obs.SpanFSOp:
			ops = append(ops, s)
		case s.Kind == obs.SpanEngineCommit:
			commits = append(commits, s)
		}
	}
	if len(ops) != 1 || ops[0].Arg1 != uint64(obs.FSOpCreate) {
		t.Fatalf("fs-op spans of one create: %+v, want one naming %v", ops, obs.FSOpCreate)
	}
	if len(commits) == 0 {
		t.Fatal("the create committed no ARU")
	}
	op := ops[0]
	for _, c := range commits {
		if c.Start < op.Start || c.Start+c.Dur > op.Start+op.Dur {
			t.Fatalf("engine-commit %+v lies outside the fs-op span %+v", c, op)
		}
	}
}
