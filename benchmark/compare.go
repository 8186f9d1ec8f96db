package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// runCompare applies the catalogue's bounds (the ones BENCHMARK.json
// carries) to every (workload, end-to-end metric) pairing of two sides.
// Each side is one set file or a comma-separated list of them; with
// several, medians are compared and the spread between a side's own
// sets — the distance between its quartiles as a share of its median —
// decides whether a difference can be told from noise at all.
//
// Verdicts: ok, worse (beyond the bound), unresolved (the recorded
// spread exceeds the bound, so neither can be said). Exit status 1 on
// any worse pairing or a larger failed_frac, 2 on unusable input.
func runCompare(baseArg, newArg string, stdout, stderr io.Writer) int {
	base, err := loadSets(baseArg)
	if err == nil {
		var next []*setFile
		if next, err = loadSets(newArg); err == nil {
			return compareSets(base, next, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "benchmark: %v\n", err)
	return 2
}

func loadSets(arg string) ([]*setFile, error) {
	var sets []*setFile
	for _, path := range strings.Split(arg, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		s := &setFile{}
		if err := json.Unmarshal(data, s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if s.Schema != 1 {
			return nil, fmt.Errorf("%s: not a benchmark set file", path)
		}
		sets = append(sets, s)
	}
	return sets, nil
}

// values collects one metric of one workload over a side's sets.
func values(sets []*setFile, workload, name string) (vs []float64) {
	for _, s := range sets {
		for _, r := range s.Untraced {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload {
				vs = append(vs, m.Value)
			}
		}
	}
	return vs
}

func failedFrac(sets []*setFile, workload string) (worst float64) {
	for _, s := range sets {
		for _, r := range s.Untraced {
			if r.Workload == workload && r.FailedFrac > worst {
				worst = r.FailedFrac
			}
		}
	}
	return worst
}

// spread is the distance between the quartiles as a share of the
// median, or 0 with fewer than two values.
func spread(vs []float64) float64 {
	if len(vs) < 2 || median(vs) == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / median(vs)
}

func compareSets(base, next []*setFile, stdout, stderr io.Writer) int {
	for _, s := range append(append([]*setFile{}, base...), next...) {
		if s.Scale != base[0].Scale {
			fmt.Fprintf(stderr, "benchmark: sets were run at different scales (%g and %g) and cannot be compared\n", base[0].Scale, s.Scale)
			return 2
		}
	}
	code := 0
	fmt.Fprintf(stdout, "%-15s %-24s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "spread", "bound", "verdict")
	for _, w := range base[0].Workloads {
		for _, d := range endToEnd {
			b, n := values(base, w, d.name), values(next, w, d.name)
			if len(b) == 0 || len(n) == 0 {
				if len(b) != len(n) {
					fmt.Fprintf(stdout, "%-15s %-24s missing on one side\n", w, d.name)
					code = 1
				}
				continue
			}
			mb, mn := median(b), median(n)
			sp := spread(b)
			if s := spread(n); s > sp {
				sp = s
			}
			worse := mn > mb*(1+d.bound)
			if d.better == "higher" {
				worse = mn < mb*(1-d.bound)
			}
			verdict := "ok"
			switch {
			case sp > d.bound:
				verdict = "unresolved"
			case worse:
				verdict = "worse"
				code = 1
			}
			fmt.Fprintf(stdout, "%-15s %-24s %14.4f %14.4f %9.4f %7.1f%% %6.0f%%  %s\n",
				w, d.name, mb, mn, mn/mb, sp*100, d.bound*100, verdict)
		}
		if fb, fn := failedFrac(base, w), failedFrac(next, w); fn > fb {
			fmt.Fprintf(stdout, "%-15s %-24s %14.6f %14.6f %27s  worse\n", w, "failed_frac", fb, fn, "")
			code = 1
		}
	}
	return code
}
