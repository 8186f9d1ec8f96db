package crashenum

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"aru/internal/workload"
)

func TestParseStateRoundTrip(t *testing.T) {
	cases := []CrashState{
		{Epoch: 0, Keep: 0, TearOp: -1},
		{Epoch: 7, Keep: 3, TearOp: -1},
		{Epoch: 12, Keep: 9, Drop: []int{5}, TearOp: -1},
		{Epoch: 12, Keep: 9, Drop: []int{4, 6, 7}, TearOp: -1},
		{Epoch: 3, Keep: 4, TearOp: 3, TearSectors: 2},
		{Epoch: 3, Keep: 8, Drop: []int{5, 6}, TearOp: 7, TearSectors: 11},
	}
	for _, cs := range cases {
		s := cs.String()
		got, err := ParseState(s)
		if err != nil {
			t.Fatalf("ParseState(%q): %v", s, err)
		}
		if got.String() != s {
			t.Fatalf("round trip %q -> %q", s, got.String())
		}
	}
	for _, bad := range []string{"", "E3", "K4", "E3K", "ExK4", "E3K4D", "E3K4T5", "E3K4T5:", "E3K4junk"} {
		if _, err := ParseState(bad); err == nil {
			t.Errorf("ParseState(%q): expected error", bad)
		}
	}
}

// TestEnumerationDeterminism checks that the same journal and seed
// always produce the same sequence of crash states, and that
// materialize reconstructs exactly the image forEach handed
// out — the property replay and shrinking depend on.
func TestEnumerationDeterminism(t *testing.T) {
	x, err := runMixed(1, Options{MixedParams: workload.MixedParams{Units: 12}})
	if err != nil {
		t.Fatal(err)
	}
	j := journalsOf(x.recs)
	type rec struct {
		st  State
		sum []byte
	}
	collect := func() []rec {
		var out []rec
		j.forEach(x.start, 3, 1, func(st State, imgs [][]byte) bool {
			out = append(out, rec{st, append([]byte(nil), imgs[0][:256]...)})
			return len(out) < 60
		})
		return out
	}
	a, b := collect(), collect()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("non-deterministic state counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].st.String() != b[i].st.String() || !bytes.Equal(a[i].sum, b[i].sum) {
			t.Fatalf("state %d differs between runs: %s vs %s", i, a[i].st, b[i].st)
		}
	}
	// Spot-check materialize against the streamed images.
	j.forEach(x.start, 3, 1, func(st State, imgs [][]byte) bool {
		if !bytes.Equal(j.materialize(st)[0], imgs[0]) {
			t.Fatalf("materialize(%s) differs from enumerated image", st)
		}
		return st.at() < x.start+2
	})

	// The whole enumeration, pinned: distinct states and a SHA-256 over
	// their descriptors in the order they are yielded. The values were
	// generated before the executors were folded into one and must not
	// move by one state; there is no tolerance and no update flag — when
	// a change is meant to move them, paste the rows this prints.
	var fresh []string
	for _, g := range enumerationGolden {
		h := sha256.New()
		n := 0
		gx, err := execute(g.kind, g.seed, Options{})
		if err != nil {
			t.Fatal(err)
		}
		journalsOf(gx.recs).forEach(gx.start, gx.window, g.seed, func(st State, _ [][]byte) bool {
			n++
			fmt.Fprintln(h, st)
			return true
		})
		row := fmt.Sprintf("{%q, %d, %d, \"%x\"},", g.kind, g.seed, n, h.Sum(nil))
		fresh = append(fresh, row)
		if n != g.states || fmt.Sprintf("%x", h.Sum(nil)) != g.sha {
			t.Errorf("%s seed %d: enumeration moved: got %s", g.kind, g.seed, row)
		}
	}
	if t.Failed() {
		t.Logf("fresh table:\n%s", strings.Join(fresh, "\n"))
	}
}

// enumerationGolden is TestEnumerationDeterminism's pinned table.
var enumerationGolden = []struct {
	kind   string
	seed   int64
	states int
	sha    string
}{
	{"mixed", 1, 232, "33b21a08e5edfe4911f250d53db62489eecf967cb649f0993a8b9b9c01f02c2b"},
	{"mixed", 2, 224, "7b805fdb215ecef37a8422b44fe91150dcbd5b2a9445022b9df9440c60bd84bf"},
	{"fs", 1, 116, "dd2b9e0847a0c9ad0fbc52a8377d13013d809422a5de13ea2748e9e9f68ccd63"},
	{"fs", 2, 104, "b07f8a9940c080cacf671ab4dd21eac278c8bcf509e51527629433048dc570e6"},
	{"net", 1, 103, "564202b12d1afc1a87742ad7db3602e48231f6c4aad25035f1a32269185fdccc"},
	{"net", 2, 96, "9761f7d21f4846b6a99ae26597216cab701c8d9699734e5e0e768392c19d62eb"},
	{"wrap", 1, 522, "cd376900819476402d687390fae68fa739ae26c4cf29a5077016500f7213887c"},
	{"wrap", 2, 435, "7ed9a4f28843f3d4d57e9efd37c44cad2c7954a9ad0b0a56591c3271ed499c1e"},
	{"maint", 1, 599, "b16ef1ea5b82190f760a7bf61daa1ce01c09130e15f6d42836609efdab7ffbe3"},
	{"maint", 2, 709, "bdf699fd00987af7c437a7387159dcabb23c931040c7566d3545a66896ebca90"},
	{"shard", 1, 278, "cf74377e4c811bb6cf84f01c37c9f04e2b76c09a5a4f24e9aea0bb8c9ad097cb"},
}

// TestCleanEngine explores crash states of both workloads against the
// real engine and expects zero violations.
func TestCleanEngine(t *testing.T) {
	o := Options{Seed: 1, Seeds: 1, Workloads: []string{"mixed", "fs"}, MaxStates: 250}
	if testing.Short() {
		o.MaxStates = 80
	}
	rpt, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rpt.Violations) != 0 {
		for _, v := range rpt.Violations {
			t.Errorf("%s seed=%d state=%s shrunk=%s: %v", v.Workload, v.Seed, v.State, v.Shrunk, v.Desc)
		}
	}
	if rpt.States < o.MaxStates {
		t.Fatalf("explored only %d states, wanted %d", rpt.States, o.MaxStates)
	}
}

// TestWrapWorkloadClean explores the wrapped-log workload — the one
// whose crash states include a reused segment's rewrite overtaking the
// seal that emptied it — and expects zero violations. (An engine that
// lets a seal's frees be reused before a sync covers the seal fails it
// on every seed.)
func TestWrapWorkloadClean(t *testing.T) {
	o := Options{Seed: 1, Seeds: 2, Workloads: []string{"wrap"}}
	if testing.Short() {
		o.Seeds = 1
	}
	rpt, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rpt.Violations {
		t.Errorf("%s seed=%d state=%s shrunk=%s: %v", v.Workload, v.Seed, v.State, v.Shrunk, v.Desc)
	}
	if rpt.States < 200*o.Seeds {
		t.Fatalf("explored only %d states", rpt.States)
	}
}

// TestMaintWorkload: the maint workload runs automatic checkpoints and
// cleaner relocations beside open units on every seed CI enumerates,
// its crash states recover clean, and it catches untagged-replay (a
// unit's merge entries logged without its tag, so a crash between them
// and the commit record splits the unit).
func TestMaintWorkload(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		var line string
		o := Options{Logf: func(format string, args ...any) { line = fmt.Sprintf(format, args...) }}
		if _, err := runMaint(seed, o); err != nil {
			t.Fatal(err)
		}
		var s, ckpts, moved int64
		if _, err := fmt.Sscanf(line, "maint seed=%d: %d automatic checkpoints, %d blocks", &s, &ckpts, &moved); err != nil {
			t.Fatalf("seed %d: unexpected report %q: %v", seed, line, err)
		}
		if ckpts == 0 || moved == 0 {
			t.Errorf("seed %d: %s", seed, line)
		}
	}
	o := Options{Seed: 1, Workloads: []string{"maint"}, MaxStates: 400}
	if testing.Short() {
		o.MaxStates = 120
	}
	rpt, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rpt.Violations {
		t.Errorf("%s seed=%d state=%s shrunk=%s: %v", v.Workload, v.Seed, v.State, v.Shrunk, v.Desc)
	}
	if rpt.States < o.MaxStates {
		t.Fatalf("explored only %d states, wanted %d", rpt.States, o.MaxStates)
	}
	o = Options{Seed: 4, Workloads: []string{"maint"}, Inject: "untagged-replay", MaxViolationsPerRun: 1}
	if rpt, err = Run(o); err != nil {
		t.Fatal(err)
	}
	if len(rpt.Violations) == 0 {
		t.Fatalf("untagged-replay not caught on maint seed 4 in %d states", rpt.States)
	}
	if viols, err := Replay("maint", 4, o, rpt.Violations[0].Shrunk); err != nil || len(viols) == 0 {
		t.Errorf("artifact %q does not reproduce (%v)", rpt.Violations[0].Artifact, err)
	}
}

// TestInjectionsCaught validates the oracle end to end: each
// deliberately broken engine build must produce violations, and every
// artifact must reproduce under Replay.
func TestInjectionsCaught(t *testing.T) {
	for _, inject := range []string{"nosync", "untagged-replay", "ack-early"} {
		t.Run(inject, func(t *testing.T) {
			// Four seeds: with segment continuation the first script in
			// which a seal splits a unit from its commit record — what
			// untagged-replay needs — is mixed seed 4.
			o := Options{Seed: 1, Seeds: 4, Workloads: []string{"mixed", "fs"}, Inject: inject,
				MaxStates: 4000, MaxViolationsPerRun: 1}
			rpt, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(rpt.Violations) == 0 {
				t.Fatalf("inject=%s: bug not caught in %d states", inject, rpt.States)
			}
			v := rpt.Violations[0]
			// The shrunk state must still fail, and must not be larger
			// than the original.
			found, err := ParseState(v.State)
			if err != nil {
				t.Fatal(err)
			}
			shrunk, err := ParseState(v.Shrunk)
			if err != nil {
				t.Fatal(err)
			}
			if shrunk.Epoch > found.Epoch ||
				(shrunk.Epoch == found.Epoch && shrunk.Keep > found.Keep) ||
				len(shrunk.Drop) > len(found.Drop) {
				t.Errorf("shrunk state %s larger than original %s", v.Shrunk, v.State)
			}
			viols, err := Replay(v.Workload, v.Seed, o, v.Shrunk)
			if err != nil {
				t.Fatal(err)
			}
			if len(viols) == 0 {
				t.Errorf("artifact %q does not reproduce", v.Artifact)
			}
			// The same state must be clean on the unbroken engine.
			clean := o
			clean.Inject = ""
			if viols, err := Replay(v.Workload, v.Seed, clean, v.Shrunk); err != nil {
				t.Fatal(err)
			} else if len(viols) != 0 {
				t.Errorf("state %s also fails the real engine: %v", v.Shrunk, viols)
			}
		})
	}
}

// TestNetClean explores crash states of the network workload — the
// engine behind an ldnet server, durability judged by acks the client
// received — and expects zero violations: every CommitDurable whose
// reply reached the client must survive any later crash, units acked
// by plain EndARU must be all-or-nothing, and units whose effects were
// mid-flight may vanish but never tear.
func TestNetClean(t *testing.T) {
	o := Options{Seed: 1, Seeds: 3, Workloads: []string{"net"}, MaxStates: 250,
		MixedParams: workload.MixedParams{Units: 24}}
	if testing.Short() {
		o.Seeds, o.MaxStates = 1, 80
	}
	rpt, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rpt.Violations {
		t.Errorf("%s seed=%d state=%s shrunk=%s: %v", v.Workload, v.Seed, v.State, v.Shrunk, v.Desc)
	}
	if rpt.States < o.MaxStates {
		t.Fatalf("explored only %d states, wanted %d", rpt.States, o.MaxStates)
	}
}

// TestNetJournalDeterministic: the net workload must journal
// deterministically across runs (one synchronous client, sequential
// server), or replay artifacts would not reproduce.
func TestNetJournalDeterministic(t *testing.T) {
	sameJournal(t, func() (*execution, error) { return runNet(3, Options{}) })
}

// sameJournal runs a workload twice and requires both runs to journal
// the same non-empty sequence of writes in the same epochs.
func sameJournal(t *testing.T, run func() (*execution, error)) {
	t.Helper()
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	ja, jb := a.recs[0].Journal(), b.recs[0].Journal()
	if len(ja) != len(jb) || len(ja) == 0 {
		t.Fatalf("journal lengths differ across runs: %d vs %d", len(ja), len(jb))
	}
	for i := range ja {
		if ja[i].Off != jb[i].Off || ja[i].Epoch != jb[i].Epoch || !bytes.Equal(ja[i].Data, jb[i].Data) {
			t.Fatalf("journal op %d differs: off %d/%d epoch %d/%d",
				i, ja[i].Off, jb[i].Off, ja[i].Epoch, jb[i].Epoch)
		}
	}
	if a.recs[0].Epoch() != b.recs[0].Epoch() {
		t.Fatalf("final epochs differ: %d vs %d", a.recs[0].Epoch(), b.recs[0].Epoch())
	}
}

// TestRecoverCrashClean crashes recovery itself: sampled clean crash
// states have their first recovery journaled and sub-enumerated, and
// every double-crash image must re-recover clean — the REDO-only
// idempotence argument of DESIGN.md §15, checked mechanically.
func TestRecoverCrashClean(t *testing.T) {
	o := Options{Seed: 1, Seeds: 2, Workloads: []string{"mixed"}, MaxStates: 400,
		RecoverCrash: true, RecoverSample: 1}
	if testing.Short() {
		o.MaxStates = 120
	}
	rpt, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rpt.Violations {
		t.Errorf("%s seed=%d state=%s: %v", v.Workload, v.Seed, v.State, v.Desc)
	}
	if rpt.States < o.MaxStates {
		t.Fatalf("explored only %d states, wanted %d", rpt.States, o.MaxStates)
	}
}

// TestTornDeltaCaught validates the oracle against the broken
// checkpoint publish barrier (FaultHooks.TornDeltaPublish): an
// incremental delta record that advances the segment-reuse watermark
// without being synced first. The enumerator must find a crash state
// where the record is lost while a reused segment overwrite survived,
// the shrunk artifact must reproduce, and the same state must be clean
// on the real engine. The workload is the wrapped log: a segment is
// retired only when full, so the stock scripts, which flush every few
// operations, no longer rewrite a segment in the epoch of the record that
// freed it.
func TestTornDeltaCaught(t *testing.T) {
	o := Options{Seed: 1, Seeds: 8, Workloads: []string{"wrap"}, Inject: "torn-delta",
		MaxViolationsPerRun: 1}
	rpt, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rpt.Violations) == 0 {
		t.Fatalf("torn-delta bug not caught in %d states", rpt.States)
	}
	v := rpt.Violations[0]
	viols, err := Replay(v.Workload, v.Seed, o, v.Shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) == 0 {
		t.Errorf("artifact %q does not reproduce", v.Artifact)
	}
	clean := o
	clean.Inject = ""
	if viols, err := Replay(v.Workload, v.Seed, clean, v.Shrunk); err != nil {
		t.Fatal(err)
	} else if len(viols) != 0 {
		t.Errorf("state %s also fails the real engine: %v", v.Shrunk, viols)
	}
}

// TestConcFlushClean explores crash states of the mixed workload with
// concurrent-committer phases (several goroutines calling Flush at
// once, coalesced by the group-commit broker) and expects zero
// violations — one device sync covering many logical commits must
// still honor the Recorder's sync-epoch barrier model.
func TestConcFlushClean(t *testing.T) {
	o := Options{Seed: 1, Seeds: 2, Workloads: []string{"mixed"}, MaxStates: 250,
		MixedParams: workload.MixedParams{ConcFlushers: 4}}
	if testing.Short() {
		o.Seeds, o.MaxStates = 1, 80
	}
	rpt, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rpt.Violations {
		t.Errorf("%s seed=%d state=%s shrunk=%s: %v", v.Workload, v.Seed, v.State, v.Shrunk, v.Desc)
	}
	if rpt.States < o.MaxStates {
		t.Fatalf("explored only %d states, wanted %d", rpt.States, o.MaxStates)
	}
}

// TestConcFlushJournalDeterministic: a script with concurrent-flush
// phases must still journal deterministically — whichever goroutine
// leads the first batch seals everything buffered, and later batches
// find nothing to do. Replay and shrinking depend on this.
func TestConcFlushJournalDeterministic(t *testing.T) {
	o := Options{MixedParams: workload.MixedParams{Units: 12, ConcFlushers: 4}}
	sameJournal(t, func() (*execution, error) { return runMixed(1, o) })
}

// TestShrink checks the minimizer on a synthetic failure predicate.
func TestShrink(t *testing.T) {
	// Fails whenever the prefix includes write 5 without write 3.
	fails := func(cs CrashState) bool {
		if cs.Keep < 6 {
			return false
		}
		for _, d := range cs.Drop {
			if d == 3 {
				return true
			}
		}
		return false
	}
	got := Shrink(CrashState{Epoch: 4, Keep: 11, Drop: []int{2, 3, 7}, TearOp: 9, TearSectors: 3}, fails)
	if !fails(got) {
		t.Fatalf("shrunk state %s does not fail", got)
	}
	if got.Keep != 6 || len(got.Drop) != 1 || got.Drop[0] != 3 || got.TearOp != -1 {
		t.Errorf("expected minimal E4K6D3, got %s", got)
	}
}
