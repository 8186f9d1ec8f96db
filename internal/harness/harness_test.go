package harness

import (
	"strings"
	"testing"
	"time"

	"aru/internal/core"
	"aru/internal/workload"
)

// tinyOptions shrinks everything so harness tests run in milliseconds.
func tinyOptions() Options {
	return Options{Scale: 100, Verify: true}
}

func TestRunSmallFilesAllBuilds(t *testing.T) {
	for _, spec := range Table1() {
		t.Run(spec.Name, func(t *testing.T) {
			res, err := RunSmallFiles(spec, workload.PaperSmall1K(), tinyOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []Phase{res.CreateWrite, res.Read, res.Delete} {
				if p.Ops <= 0 || p.Elapsed <= 0 || p.PerSec() <= 0 {
					t.Fatalf("phase %s: %+v", p.Name, p)
				}
			}
			if res.CreateWrite.Delta.ARUsCommitted < res.CreateWrite.Ops {
				t.Fatalf("C+W committed %d ARUs for %d creates", res.CreateWrite.Delta.ARUsCommitted, res.CreateWrite.Ops)
			}
			if spec.Variant == core.VariantOld && res.CreateWrite.Delta.ShadowCreated != 0 {
				t.Fatalf("old build created %d shadow records", res.CreateWrite.Delta.ShadowCreated)
			}
			if spec.Variant == core.VariantNew && res.Delete.Delta.ListOpsReplayed == 0 {
				t.Fatalf("new build replayed no list operations during deletes")
			}
		})
	}
}

func TestRunSmallFilesOverheadDirection(t *testing.T) {
	// The concurrent build must never be faster on deletes than the
	// sequential baseline under the deterministic model.
	o := Options{Scale: 20, Verify: false}
	specs := Table1()
	old, err := RunSmallFiles(specs[0], workload.PaperSmall1K(), o)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := RunSmallFiles(specs[1], workload.PaperSmall1K(), o)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Delete.PerSec() >= old.Delete.PerSec() {
		t.Fatalf("concurrent build deleted faster than baseline: %.1f vs %.1f files/s",
			nw.Delete.PerSec(), old.Delete.PerSec())
	}
	// Floor re-floated from 5% when the MVCC read path landed: epoch-
	// gated segment reuse shifts log layout slightly, compressing the
	// modeled gap. The direction (new strictly slower) is the invariant.
	if PctOverhead(old.Delete.PerSec(), nw.Delete.PerSec()) < 3 {
		t.Fatalf("delete overhead implausibly small: old %.1f new %.1f", old.Delete.PerSec(), nw.Delete.PerSec())
	}
}

func TestRunLargeFile(t *testing.T) {
	// The cache is disabled: at this scale the whole file would fit in
	// it, hiding the disk-bound shape the assertions below check (at
	// full scale the 78 MB file exceeds the cache on its own).
	res, err := RunLargeFile(Table1()[1], workload.PaperLarge(), Options{Scale: 50, Verify: true, CacheBlocks: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Phases() {
		if p.MBPerSec() <= 0 {
			t.Fatalf("phase %s has no throughput: %+v", p.Name, p)
		}
	}
	// Log-structured shape: random re-writes (write2) must be in the
	// same league as sequential writes, and random reads (read2) must
	// be the slowest phase.
	if res.Write2.MBPerSec() < res.Write1.MBPerSec()/2 {
		t.Fatalf("random writes did not benefit from the log: write1 %.2f write2 %.2f",
			res.Write1.MBPerSec(), res.Write2.MBPerSec())
	}
	for _, p := range []Phase{res.Write1, res.Read1, res.Write2} {
		if res.Read2.MBPerSec() > p.MBPerSec() {
			t.Fatalf("random reads (%.2f) beat %s (%.2f)", res.Read2.MBPerSec(), p.Name, p.MBPerSec())
		}
	}
}

func TestRunARULatency(t *testing.T) {
	res, err := RunARULatency(Table1()[1], 500000, Options{Scale: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 10000 {
		t.Fatalf("scaled N = %d", res.N)
	}
	// The calibrated model targets the paper's 78.47 µs; allow slack.
	if res.PerARU < 40*time.Microsecond || res.PerARU > 200*time.Microsecond {
		t.Fatalf("per-ARU latency %v implausible vs paper's 78.47 µs", res.PerARU)
	}
	if res.SegmentsWritten == 0 {
		t.Fatal("commit records never reached a segment")
	}
}

func TestChargeVariantPremium(t *testing.T) {
	m := SPARC5Model()
	d := core.Stats{RecordsPromoted: 100}
	oldT := m.Charge(d, core.VariantOld)
	newT := m.Charge(d, core.VariantNew)
	if newT <= oldT {
		t.Fatalf("promotion premium missing: old %v new %v", oldT, newT)
	}
}

func TestRenderers(t *testing.T) {
	o := tinyOptions()
	fig5, err := RunFig5(o)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatFig5(fig5)
	for _, want := range []string{"Figure 5", "old", "new, delete", "overhead vs old", "paper"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatFig5 missing %q:\n%s", want, out)
		}
	}
	fig6, err := RunFig6(Options{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	out = FormatFig6(fig6)
	for _, want := range []string{"Figure 6", "write1", "read3", "paper"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatFig6 missing %q:\n%s", want, out)
		}
	}
	lat, err := RunARULatency(Table1()[1], 500000, Options{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(FormatARULat(lat), "78.47") {
		t.Fatal("FormatARULat missing the paper reference")
	}
	if !strings.Contains(FormatTable1(), "sequential ARUs") {
		t.Fatal("FormatTable1 missing build description")
	}
}

func TestPctOverhead(t *testing.T) {
	if got := PctOverhead(100, 75); got != 25 {
		t.Fatalf("PctOverhead(100,75) = %v", got)
	}
	if got := PctOverhead(0, 10); got != 0 {
		t.Fatalf("PctOverhead with zero base = %v", got)
	}
}

func TestCSVRenderers(t *testing.T) {
	fig5, err := RunFig5(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	csv := CSVFig5(fig5)
	if !strings.HasPrefix(csv, "population,build,phase,files_per_sec\n") {
		t.Fatalf("CSVFig5 header wrong:\n%s", csv)
	}
	if n := strings.Count(csv, "\n"); n != 1+2*3*3 {
		t.Fatalf("CSVFig5 has %d lines", n)
	}
	fig6, err := RunFig6(Options{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	csv = CSVFig6(fig6)
	if n := strings.Count(csv, "\n"); n != 1+2*5 {
		t.Fatalf("CSVFig6 has %d lines:\n%s", n, csv)
	}
}
