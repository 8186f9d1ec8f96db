package harness

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// modeledRows runs the paper's three modeled experiments at -scale 10
// and renders one line per measured phase: experiment, population,
// build, phase, operations, simulated disk ns, modeled CPU ns.
func modeledRows(t *testing.T) []string {
	t.Helper()
	o := Options{Scale: 10}
	var rows []string
	add := func(exp, label, build string, phases ...Phase) {
		for _, p := range phases {
			rows = append(rows, fmt.Sprintf("%-6s %-9s %-11s %-6s %6d %10d %10d",
				exp, label, build, p.Name, p.Ops, p.Disk.Nanoseconds(), p.CPU.Nanoseconds()))
		}
	}
	fig5, err := RunFig5(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fig5.Small1K {
		add("fig5", "10000x1KB", r.Spec.Name, r.CreateWrite, r.Read, r.Delete)
	}
	for _, r := range fig5.Small10K {
		add("fig5", "1000x10KB", r.Spec.Name, r.CreateWrite, r.Read, r.Delete)
	}
	fig6, err := RunFig6(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []LargeResult{fig6.Old, fig6.New} {
		add("fig6", "-", r.Spec.Name, r.Phases()...)
	}
	lat, err := RunARULatency(Table1()[1], 500000, o)
	if err != nil {
		t.Fatal(err)
	}
	add("arulat", "-", lat.Spec.Name, lat.Phase)
	return rows
}

// TestModeledGolden pins the modeled reproduction exactly: simulated
// disk time plus cost-model CPU time is a function of the workload
// alone, so any difference — one nanosecond, any core count — is a
// change to the engine's I/O pattern or counters, or lost determinism.
// There is no tolerance and no update flag: when a change is meant to
// move a row, paste the table this prints over testdata/modeled.golden
// (leading whitespace is ignored) and account for the move in the PR.
func TestModeledGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/modeled.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		want = append(want, strings.TrimSpace(line))
	}
	got := modeledRows(t)
	fresh := "fresh table:\n" + strings.Join(got, "\n")
	if len(got) != len(want) {
		t.Fatalf("%d modeled rows, golden has %d\n%s", len(got), len(want), fresh)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d differs from testdata/modeled.golden\n got: %s\nwant: %s\n%s", i+1, got[i], want[i], fresh)
		}
	}
}
