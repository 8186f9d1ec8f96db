package obs_test

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aru/internal/core"
	"aru/internal/ldnet"
	"aru/internal/obs"
)

// TestHandler scrapes the Prometheus endpoint with the engine's and the
// network server's real counters and parses the exposition: every
// series is declared before it appears, every _total series is a
// counter, the gauges are gauges without _total, histograms are
// cumulative buckets with a +Inf bound matching _count, and no
// _seconds series holds batch sizes.
func TestHandler(t *testing.T) {
	tr := obs.New(obs.Config{})
	tr.Observe(obs.HistRead, 5*time.Microsecond)
	tr.Observe(obs.HistRead, 50*time.Microsecond)
	tr.Observe(obs.HistCommitBatch, 3) // one batch of three commits
	var net ldnet.Metrics
	h := obs.Handler(obs.HandlerOptions{
		Counters: func() []obs.Counter {
			return append(obs.FlattenCounters(core.Stats{Reads: 2, SnapshotAge: 1}), net.Counters()...)
		},
		Tracer: tr,
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	types := map[string]string{} // series family → declared type
	samples := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
			continue
		}
		if len(f) != 2 {
			t.Fatalf("malformed exposition line %q", sc.Text())
		}
		name, family := f[0], f[0]
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		if _, ok := types[family]; !ok {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(family, suf); types[base] == "histogram" {
					family = base
				}
			}
		}
		typ, ok := types[family]
		if !ok {
			t.Fatalf("series %q has no # TYPE line", name)
		}
		if strings.HasSuffix(family, "_total") && typ != "counter" {
			t.Errorf("%s is a %s, want a counter", family, typ)
		}
		samples[name] = f[1]
	}
	for _, g := range []string{"aru_shadow_records", "aru_alt_records", "aru_snapshot_age", "aru_net_sessions_active"} {
		if types[g] != "gauge" {
			t.Errorf("%s declared %q, want gauge", g, types[g])
		}
		if _, ok := types[g+"_total"]; ok {
			t.Errorf("gauge %s is also exported as a counter", g)
		}
	}
	for name, want := range map[string]string{
		"aru_reads_total":                    "2",
		"aru_snapshot_age":                   "1",
		"aru_net_sessions_total":             "0",
		"aru_trace_dropped_total":            "0",
		`aru_read_seconds_bucket{le="+Inf"}`: "2",
		"aru_read_seconds_count":             "2",
		"aru_segment_flush_seconds_count":    "0",
		`aru_commit_batch_bucket{le="3"}`:    "1",
		"aru_commit_batch_sum":               "3",
	} {
		if got := samples[name]; got != want {
			t.Errorf("%s = %q, want %q", name, got, want)
		}
	}
	if _, ok := types["aru_commit_batch_seconds"]; ok {
		t.Error("batch sizes exported as a _seconds histogram")
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}
