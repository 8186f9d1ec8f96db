package aru_test

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"aru"
	"aru/internal/obs"
)

// traceDisk formats a disk with a fresh tracer attached and runs one
// full ARU lifecycle (begin, write, commit, flush) plus a read.
func traceDisk(t *testing.T) (*aru.Disk, *aru.Tracer) {
	t.Helper()
	tr := aru.NewTracer(aru.TracerConfig{})
	layout := aru.DefaultLayout(32)
	dev := aru.NewMemDevice(layout.DiskBytes())
	d, err := aru.Format(dev, aru.Params{Layout: layout, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	lst, err := d.NewList(aru.Simple)
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.BeginARU()
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.NewBlock(a, lst, aru.NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xa5}, d.BlockSize())
	if err := d.Write(a, b, payload); err != nil {
		t.Fatal(err)
	}
	if err := d.EndARU(a); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(aru.Simple, b, payload); err != nil {
		t.Fatal(err)
	}
	return d, tr
}

// TestTraceSpansLifecycle checks the acceptance criterion of the
// observability layer: the tracer's spans hold the full ARU lifecycle
// in causal order — begun, written, committed, made durable by a
// segment flush — with the durable ack chained below the commit.
func TestTraceSpansLifecycle(t *testing.T) {
	_, tr := traceDisk(t)

	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("the tracer recorded no spans")
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Seq <= spans[i-1].Seq {
			t.Fatalf("spans out of Seq order at %d: %v after %v", i, spans[i], spans[i-1])
		}
	}
	idx := func(kind aru.SpanKind) int {
		for i, s := range spans {
			if s.Kind == kind {
				return i
			}
		}
		return -1
	}
	begin, write, commit := idx(obs.SpanARUBegin), idx(obs.SpanWrite), idx(obs.SpanEngineCommit)
	durable, flush := idx(obs.SpanCommitDurable), idx(obs.SpanSegFlush)
	if begin < 0 || write < 0 || commit < 0 || durable < 0 || flush < 0 {
		t.Fatalf("lifecycle spans missing: begin=%d write=%d commit=%d durable=%d flush=%d",
			begin, write, commit, durable, flush)
	}
	if !(begin < write && write < commit && commit < durable) {
		t.Fatalf("lifecycle out of causal order: begin=%d write=%d commit=%d durable=%d",
			begin, write, commit, durable)
	}
	b, w, c, d := spans[begin], spans[write], spans[commit], spans[durable]
	if b.Dur != 0 || w.Dur <= 0 || c.Dur <= 0 {
		t.Fatalf("want an instant begin and timed write and commit: %v / %v / %v", b, w, c)
	}
	if b.ARU != c.ARU || w.ARU != c.ARU || d.ARU != c.ARU {
		t.Fatalf("spans name different ARUs: begin %d, write %d, commit %d, durable %d", b.ARU, w.ARU, c.ARU, d.ARU)
	}
	if d.Parent != c.ID || d.Trace != c.Trace {
		t.Fatalf("commit-durable %v is not a child of the engine commit %v", d, c)
	}
}

// TestDiskMetrics checks that the Metrics snapshot is populated after
// the lifecycle ran: write, commit-durable and segment-flush
// histograms all observed at least one sample.
func TestDiskMetrics(t *testing.T) {
	d, _ := traceDisk(t)

	byName := map[string]aru.HistSnapshot{}
	for _, h := range d.Metrics() {
		byName[h.Name] = h
	}
	for _, name := range []string{"read", "write", "commit_durable", "segment_flush"} {
		h, ok := byName[name]
		if !ok {
			t.Fatalf("histogram %q missing from Metrics()", name)
		}
		if h.Count == 0 {
			t.Errorf("histogram %q observed no samples", name)
		}
	}
	if q := byName["write"].Quantile(0.95); q <= 0 {
		t.Errorf("write p95 = %d, want > 0", q)
	}
}

// TestServeMetricsFacade boots the metrics endpoint on a loopback port
// and scrapes it, checking the counter and histogram series appear.
func TestServeMetricsFacade(t *testing.T) {
	d, tr := traceDisk(t)

	srv, addr, err := aru.ServeMetrics("127.0.0.1:0", aru.MetricsOptions{
		Counters: func() []aru.Counter { return aru.StatsCounters(d.Stats()) },
		Tracer:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"aru_reads_total",
		"aru_writes_total",
		"aru_arus_committed_total",
		"aru_segments_written_total",
		"aru_chunks_written_total",
		"aru_segment_bytes_written_total",
		"aru_read_seconds_bucket",
		"aru_write_seconds_bucket",
		"aru_commit_durable_seconds_bucket",
		"aru_segment_flush_seconds_bucket",
		"aru_checkpoint_seconds_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing series %q", want)
		}
	}
}
