package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// runSeconds is the length of the measured region the driver asks for.
const runSeconds = 12

// benchmarkJSON renders the catalogue the way BENCHMARK.json holds it.
func benchmarkJSON() map[string]any {
	type obj = map[string]any
	doc := obj{
		"command":     []any{"bash", "benchmark/run.sh"},
		"paths":       []any{"benchmark"},
		"run_seconds": float64(runSeconds),
	}
	var ws, e2e, layers []any
	for _, w := range workloads() {
		ws = append(ws, obj{"name": w.name, "why": w.why})
	}
	for _, d := range endToEnd {
		e2e = append(e2e, obj{"name": d.name, "unit": d.unit, "better": d.better, "bound": d.bound})
	}
	for _, d := range perLayer {
		layers = append(layers, obj{"name": d.name, "unit": d.unit, "better": d.better})
	}
	doc["workloads"], doc["end_to_end"], doc["per_layer"] = ws, e2e, layers
	return doc
}

// BENCHMARK.json and the catalogue the runner emits from are the same
// set of names, units, directions and bounds.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(); !reflect.DeepEqual(got, want) {
		rendered, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json differs from the catalogue in catalog.go; the catalogue renders as:\n%s", rendered)
	}
}

func TestCatalogueIsWellFormed(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		t.Helper()
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or used twice", d.name)
		}
		seen[d.name] = true
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q is malformed", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: direction %q", d.name, d.better)
		}
	}
	var setup bool
	for _, d := range endToEnd {
		check(d)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		setup = setup || d.name == "setup_s" && d.unit == "s" && d.better == "lower"
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, w := range workloads() {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or used twice", w.name)
		}
		seen[w.name] = true
		if w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	// Each per-layer metric names the end-to-end metric and the workload
	// it should move, or says that it should move none.
	for _, d := range perLayer {
		check(d)
		if strings.HasPrefix(d.moves, "none:") {
			continue
		}
		var metric, where bool
		for _, e := range endToEnd {
			metric = metric || strings.Contains(d.moves, e.name)
		}
		for _, w := range workloads() {
			where = where || strings.Contains(d.moves, w.name)
		}
		where = where || strings.Contains(d.moves, "every workload")
		if !metric || !where {
			t.Errorf("%s: %q names no end-to-end metric or no workload", d.name, d.moves)
		}
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128", n)
	}
}
