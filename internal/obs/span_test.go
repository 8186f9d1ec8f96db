package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"aru/internal/alloctest"
)

// serveOnce spins up h, GETs it once and returns the body.
func serveOnce(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return string(body)
}

func TestSpanRingBasic(t *testing.T) {
	tr := New(Config{RingSize: 64})
	if !tr.SpanEnabled() {
		t.Fatal("SpanEnabled = false with a ring configured")
	}
	root := tr.StartAt(SpanEngineCommit, SpanContext{}, 10)
	child := tr.StartAt(SpanCommitDurable, root.Ctx(), 12)
	rc, cc := root.Ctx(), child.Ctx()
	if rc.Span == 0 || cc.Span == 0 || rc.Span == cc.Span || rc.Trace != rc.Span || cc.Trace != rc.Trace {
		t.Fatalf("ids: root %+v child %+v, want distinct spans on the root's own trace", rc, cc)
	}
	child.EndAt(21, 7, 1, 2)
	root.EndAt(15, 7, 3, 0)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Seq >= spans[1].Seq {
		t.Fatalf("spans out of Seq order: %d then %d", spans[0].Seq, spans[1].Seq)
	}
	got := spans[0]
	if got.Trace != rc.Trace || got.ID != cc.Span || got.Parent != rc.Span ||
		got.Kind != SpanCommitDurable || got.Start != 12 || got.Dur != 9 ||
		got.ARU != 7 || got.Arg1 != 1 || got.Arg2 != 2 {
		t.Fatalf("span round-trip mismatch: %+v", got)
	}
	if r := spans[1]; r.ID != rc.Span || r.Parent != 0 || r.Dur != 5 || r.Arg1 != 3 {
		t.Fatalf("root span mismatch: %+v", r)
	}
	if h := tr.Histogram(HistCommitDurable); h.Count != 1 || h.SumNs != 9 {
		t.Fatalf("commit_durable histogram %+v, want the one 9 ns span", h)
	}
	if tr.SpansDropped() != 0 {
		t.Fatalf("SpansDropped = %d before any wraparound", tr.SpansDropped())
	}
}

// TestSpanRingDisabled: with the ring off nothing is recorded and no
// context is minted, but a kind with a histogram still feeds it.
func TestSpanRingDisabled(t *testing.T) {
	tr := New(Config{RingSize: -1, SpanRingSize: 64}) // the deprecated size is ignored
	if tr.SpanEnabled() {
		t.Fatal("SpanEnabled = true with the ring off")
	}
	rd := tr.Start(SpanRead, SpanContext{Trace: 1, Span: 2})
	rpc := tr.Start(SpanClientRPC, SpanContext{})
	if rd.Ctx() != (SpanContext{}) || rpc != (Active{}) {
		t.Fatalf("ring-off spans carry state: read %+v rpc %+v", rd, rpc)
	}
	rd.End(1, 2, 0)
	rpc.End(0, 0, 0)
	tr.Instant(SpanEpochPublish, 0, 1, 0)
	if got := tr.Spans(); got != nil {
		t.Fatalf("Spans() = %v on a disabled ring", got)
	}
	if n := tr.Histogram(HistRead).Count; n != 1 {
		t.Fatalf("read histogram count = %d with the ring off, want 1", n)
	}
}

// TestRingWraparoundDroppedCount is the regression test for the
// dropped-span accounting: trace loss must be visible. Overrunning the
// ring must (a) report exactly ticket−capacity drops and (b) keep the
// snapshot ordered by Seq with the *newest* spans surviving, each
// payload matching its ticket.
func TestRingWraparoundDroppedCount(t *testing.T) {
	const capacity = 16 // newRing minimum
	tr := New(Config{RingSize: capacity})
	const emitted = capacity*3 + 5
	for i := 1; i <= emitted; i++ {
		if i%2 == 0 {
			tr.Instant(SpanARUBegin, uint64(i), 0, 0)
		} else {
			tr.Start(SpanSegFlush, SpanContext{}).End(uint64(i), 0, 0)
		}
	}
	if got, want := tr.SpansDropped(), uint64(emitted-capacity); got != want {
		t.Errorf("SpansDropped = %d, want %d", got, want)
	}
	spans := tr.Spans()
	if len(spans) != capacity {
		t.Fatalf("got %d spans after wraparound, want %d", len(spans), capacity)
	}
	for i, s := range spans {
		wantSeq := uint64(emitted - capacity + 1 + i)
		if s.Seq != wantSeq || s.ARU != wantSeq {
			t.Fatalf("span[%d] = seq %d aru %d, want %d (newest must survive, ordered)", i, s.Seq, s.ARU, wantSeq)
		}
	}
}

// TestRingDroppedCounterOnMetrics pins the /metrics exposition of the
// trace-loss counter.
func TestRingDroppedCounterOnMetrics(t *testing.T) {
	tr := New(Config{RingSize: 16})
	for i := 0; i < 20; i++ {
		tr.Instant(SpanARUBegin, 1, 2, 3)
	}
	body := serveOnce(t, Handler(HandlerOptions{Tracer: tr}))
	for _, want := range []string{
		"# TYPE aru_trace_dropped_total counter",
		"aru_trace_dropped_total 4",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

// TestSpanRingConcurrent races writers of child spans, minting ids
// under their own roots, against a drainer: snapshots stay Seq-ordered
// and hold only complete child spans. (A writer stalled for a whole
// lap of the ring may mix two payloads; see ring.)
func TestSpanRingConcurrent(t *testing.T) {
	tr := New(Config{RingSize: 256})
	const writers = 4
	var roots [writers]SpanContext
	for g := range roots {
		roots[g] = tr.Start(SpanClientRPC, SpanContext{}).Ctx()
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr.Start(SpanServerOp, roots[g]).End(uint64(g), uint64(i), 0)
			}
		}(g)
	}
	deadline := time.After(50 * time.Millisecond)
	for {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			return
		default:
		}
		spans := tr.Spans()
		for i, s := range spans {
			if i > 0 && spans[i-1].Seq >= s.Seq {
				t.Fatalf("snapshot out of order at %d: %d then %d", i, spans[i-1].Seq, s.Seq)
			}
			if s.Kind != SpanServerOp || s.ARU >= writers || s.Trace == 0 || s.ID == 0 || s.Parent == 0 {
				t.Fatalf("malformed span %+v", s)
			}
		}
	}
}

func TestAllocsEmitSpan(t *testing.T) {
	tr := New(Config{RingSize: 1024})
	parent := tr.Start(SpanServerOp, SpanContext{}).Ctx()
	op := func() {
		tr.Start(SpanEngineCommit, parent).End(3, 0, 0)
	}
	op()
	alloctest.Check(t, "emit span", 0, 500, op)
}

// TestAllocsSpanDisabledPath gates the cost of tracing being OFF: a
// ring-off tracer (and a nil tracer) must time and skip for free.
func TestAllocsSpanDisabledPath(t *testing.T) {
	tr := New(Config{RingSize: -1})
	var nilT *Tracer
	op := func() {
		for _, x := range []*Tracer{tr, nilT} {
			x.Start(SpanEngineCommit, SpanContext{Trace: 1, Span: 2}).End(1, 0, 0)
			x.Start(SpanWrite, SpanContext{}).End(1, 2, 0)
			x.Instant(SpanARUBegin, 1, 0, 0)
		}
	}
	op()
	alloctest.Check(t, "disabled span emit", 0, 500, op)
}

func TestChromeTraceExport(t *testing.T) {
	const trace, rpc, op, commit, batch, sync = 1, 2, 3, 4, 5, 6
	spans := []Span{
		{Trace: trace, ID: rpc, Kind: SpanClientRPC, Start: 0, Dur: 100},
		{Trace: trace, ID: op, Parent: rpc, Kind: SpanServerOp, Start: 10, Dur: 80},
		{Trace: trace, ID: commit, Parent: op, Kind: SpanEngineCommit, Start: 20, Dur: 30},
		{Trace: trace, ID: batch, Kind: SpanCommitBatch, Start: 50, Dur: 40, Arg1: 1},
		{Trace: trace, ID: sync, Parent: batch, Kind: SpanDeviceSync, Start: 60, Dur: 20, Arg1: 1},
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		Events []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	var complete, meta, flowS, flowF int
	for _, ev := range doc.Events {
		switch ev["ph"] {
		case "X":
			complete++
		case "M":
			meta++
		case "s":
			flowS++
		case "f":
			flowF++
		}
	}
	if complete != 5 {
		t.Errorf("got %d complete events, want 5", complete)
	}
	if flowS != 3 || flowF != 3 {
		t.Errorf("got %d/%d flow start/finish events, want 3/3 (rpc→op, op→commit, batch→sync)", flowS, flowF)
	}
	if meta == 0 {
		t.Error("no thread_name metadata events")
	}
}

func TestTraceHandlerEmptyTracer(t *testing.T) {
	// /debug/trace must serve loadable JSON even with no tracer.
	body := serveOnce(t, TraceHandler(nil))
	var doc struct {
		Events []any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%s", err, body)
	}
	if len(doc.Events) != 0 {
		t.Fatalf("empty tracer exported %d events", len(doc.Events))
	}
}

func TestFlightRecorder(t *testing.T) {
	tr := New(Config{RingSize: 64})
	tr.Start(SpanCommitDurable, SpanContext{}).End(1, 9, 4)
	tr.Observe(HistWrite, time.Millisecond)

	fr := NewFlightRecorder(tr)
	fr.Dir = t.TempDir()
	path, err := fr.Dump("test")
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read artifact: %v", err)
	}
	var d FlightDump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if d.Reason != "test" || len(d.Spans) != 1 || len(d.Histograms) == 0 {
		t.Fatalf("artifact incomplete: reason=%q spans=%d hists=%d",
			d.Reason, len(d.Spans), len(d.Histograms))
	}
	if d.Spans[0].Arg1 != 9 || d.Spans[0].Arg2 != 4 {
		t.Fatalf("span args did not survive the dump: %+v", d.Spans[0])
	}
	if fr.Dumps() != 1 {
		t.Fatalf("Dumps = %d, want 1", fr.Dumps())
	}
}

func TestFlightRecorderRateLimit(t *testing.T) {
	tr := New(Config{RingSize: 16})
	fr := NewFlightRecorder(tr)
	fr.Dir = t.TempDir()
	fr.MinGap = time.Hour
	if p, err := fr.TryDump("first"); err != nil || p == "" {
		t.Fatalf("first TryDump suppressed: path=%q err=%v", p, err)
	}
	for i := 0; i < 5; i++ {
		if p, err := fr.TryDump("burst"); err != nil || p != "" {
			t.Fatalf("TryDump inside MinGap wrote %q (err=%v)", p, err)
		}
	}
	files, _ := filepath.Glob(filepath.Join(fr.Dir, "aru-flight-*.json"))
	if len(files) != 1 {
		t.Fatalf("rate limit leaked: %d artifacts", len(files))
	}
	if fr.Dumps() != 1 {
		t.Fatalf("Dumps = %d, want 1", fr.Dumps())
	}
}

func TestFlightRecorderOnPanic(t *testing.T) {
	tr := New(Config{RingSize: 16})
	tr.Start(SpanEngineCommit, SpanContext{}).End(1, 0, 0)
	fr := NewFlightRecorder(tr)
	fr.Dir = t.TempDir()
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("OnPanic swallowed the panic")
			}
		}()
		defer fr.OnPanic()
		panic(fmt.Errorf("boom"))
	}()
	files, _ := filepath.Glob(filepath.Join(fr.Dir, "aru-flight-*.json"))
	if len(files) != 1 {
		t.Fatalf("panic left %d artifacts, want 1", len(files))
	}
	raw, _ := os.ReadFile(files[0])
	if !strings.Contains(string(raw), "panic: boom") {
		t.Fatalf("artifact does not name the panic:\n%s", raw)
	}
}

// Dumps returns how many artifacts the recorder has written.
func (f *FlightRecorder) Dumps() uint64 {
	if f == nil {
		return 0
	}
	return f.dumps.Load()
}
