package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const smokeScale = 0.01

func smokeRun(t *testing.T, def *workloadDef, seed int64, traced bool) *runResult {
	t.Helper()
	r, err := runWorkload(def, config{seed: seed, scale: smokeScale, traced: traced, setups: 1, slices: 6, refPasses: 1})
	if err != nil {
		t.Fatalf("%s: %v", def.name, err)
	}
	if r.Failed != 0 || r.Violations != 0 {
		t.Fatalf("%s (traced=%v): %d of %d ops failed, %d violations: %s", def.name, traced, r.Failed, r.Attempted, r.Violations, r.FirstError)
	}
	if r.MeasuredOps == 0 || r.Samples == 0 {
		t.Fatalf("%s: nothing measured: %+v", def.name, r)
	}
	return r
}

// Every workload at 1/100 scale, untraced and traced, with every
// correctness check the full run makes; between them the traced runs
// must report every per-layer metric of the catalogue.
func TestEveryWorkloadSmallScale(t *testing.T) {
	emitted := map[string]bool{"obs.overhead_frac": true} // set by the caller from a pair of runs
	for _, def := range workloads() {
		plain := smokeRun(t, def, 1, false)
		if missing := missingEndToEnd(plain); len(missing) > 0 {
			t.Errorf("%s: end-to-end metrics missing: %v", def.name, missing)
		}
		for name, m := range plain.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.name, name, m.Value)
			}
		}
		if testing.Short() {
			continue
		}
		traced := smokeRun(t, def, 1, true)
		for name := range traced.Metrics {
			emitted[name] = true
		}
		if def.clients == 1 {
			var sum float64
			for _, v := range traced.SelfUsPerOp {
				sum += v
			}
			if sum < 0.9*traced.SampledOpUs || sum > 1.1*traced.SampledOpUs {
				t.Errorf("%s: layer self times sum to %.2fus, mean sampled op is %.2fus", def.name, sum, traced.SampledOpUs)
			}
		}
	}
	if testing.Short() {
		return
	}
	// A full checkpoint is too rare to fall into a run this short.
	emitted["core.checkpoint_us"] = true
	for _, d := range perLayer {
		if !emitted[d.name] {
			t.Errorf("no workload reports per-layer metric %s", d.name)
		}
	}
}

// On a single-client workload the same seed gives the same op stream
// and the same device and segment counts; another seed gives another
// stream.
func TestSameSeedSameCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("repeats traced runs")
	}
	exact := []string{"disk.writes_per_op", "disk.write_bytes_per_op", "disk.reads_per_op",
		"disk.read_bytes_per_op", "disk.syncs_per_op", "core.segments_per_kop"}
	for _, def := range workloads() {
		if def.clients != 1 {
			continue
		}
		a, b, other := smokeRun(t, def, 7, true), smokeRun(t, def, 7, true), smokeRun(t, def, 8, false)
		if a.OpStreamHash != b.OpStreamHash {
			t.Errorf("%s: same seed, op streams %s and %s", def.name, a.OpStreamHash, b.OpStreamHash)
		}
		if a.OpStreamHash == other.OpStreamHash {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream %s", def.name, a.OpStreamHash)
		}
		for _, name := range exact {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s = %v then %v with the same seed", def.name, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}

// The command line: a typo is an error, never a silent exit 0, and a
// scaled set cannot be compared against a full one.
func TestCommandLine(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"-workloads", "aru_comit"}, {"-workload", "nope"}, {"-no-such-flag"}, {"stray"},
		{"-compare", "only-one.json"}, {"-scale", "0"},
	} {
		if code := realMain(args, &out, &errOut); code == 0 {
			t.Errorf("benchmark %v exited 0", args)
		}
	}

	dir := t.TempDir()
	small, full := filepath.Join(dir, "small.json"), filepath.Join(dir, "full.json")
	if code := realMain([]string{"-workloads", "durable_commit", "-scale", "0.01", "-seed", "3", "-out", small}, &out, &errOut); code != 0 {
		t.Fatalf("set run exited %d: %s", code, errOut.String())
	}
	data, err := os.ReadFile(small)
	if err != nil {
		t.Fatal(err)
	}
	var set setFile
	if err := json.Unmarshal(data, &set); err != nil {
		t.Fatal(err)
	}
	if set.Scale != 0.01 || set.Seed != 3 || set.Host.GoMaxProcs != 2 || len(set.Untraced) != 1 || len(set.Traced) != 1 {
		t.Fatalf("set file does not record the run: %+v", set)
	}
	if _, ok := set.Traced[0].Metrics["obs.overhead_frac"]; !ok {
		t.Error("traced run has no obs.overhead_frac")
	}
	out.Reset()
	if code := realMain([]string{"-compare", small, small}, &out, &errOut); code != 0 {
		t.Errorf("a set compared with itself exited %d:\n%s", code, out.String())
	}
	// The same set with throughput cut by a third must read as worse.
	set.Untraced[0].Metrics.set("ops_per_s", set.Untraced[0].Metrics["ops_per_s"].Value*0.66)
	worse, _ := json.Marshal(set)
	if err := os.WriteFile(full, worse, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := realMain([]string{"-compare", small, full}, &out, &errOut); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a third less throughput exited %d:\n%s", code, out.String())
	}
	set.Scale = 1
	rescaled, _ := json.Marshal(set)
	if err := os.WriteFile(full, rescaled, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := realMain([]string{"-compare", small, full}, &out, &errOut); code != 2 {
		t.Errorf("comparing sets of different scale exited %d, want 2", code)
	}
}
