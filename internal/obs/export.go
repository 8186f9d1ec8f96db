package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// Chrome-trace-event exporter: renders a span snapshot in the Trace
// Event Format consumed by Perfetto (ui.perfetto.dev) and
// chrome://tracing. Each span becomes a "X" (complete) event on a
// per-kind lane, and every parent→child edge becomes an "s"/"f" flow
// pair, so a durable commit renders as an arrow chain client-rpc →
// server-op → engine-commit → commit-batch → device-sync.
//
// The output is a plain JSON object {"traceEvents": [...]}, written
// incrementally — no intermediate per-event structs — so dumping an
// 8192-span ring from a flight-recorder trigger is cheap.

// chromeTracePID is the synthetic process id of the exported timeline;
// lanes (tids) are span kinds.
const chromeTracePID = 1

// WriteChromeTrace writes spans as Chrome trace-event JSON. Spans is a
// Tracer.Spans snapshot (any order; IDs resolve flows). Kind lanes are
// named with thread_name metadata so Perfetto shows readable rows.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	comma := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
	}

	// Lane metadata: one named row per span kind present.
	seenKind := map[SpanKind]bool{}
	byID := make(map[uint64]*Span, len(spans))
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		if !seenKind[s.Kind] {
			seenKind[s.Kind] = true
			comma()
			fmt.Fprintf(bw, `{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
				chromeTracePID, int(s.Kind), strconv.Quote(s.Kind.String()))
			// thread_sort_index keeps lanes in causal order (client at
			// the top, device sync at the bottom).
			comma()
			fmt.Fprintf(bw, `{"ph":"M","pid":%d,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`,
				chromeTracePID, int(s.Kind), int(s.Kind))
		}
	}

	for i := range spans {
		s := &spans[i]
		ts := float64(s.Start) / 1e3 // µs
		dur := float64(s.Dur) / 1e3
		if dur <= 0 {
			dur = 0.001 // zero-width slices are invisible; give them 1ns
		}
		comma()
		fmt.Fprintf(bw,
			`{"ph":"X","pid":%d,"tid":%d,"name":%s,"cat":"aru","ts":%.3f,"dur":%.3f,"args":{"trace":"%x","span":"%x","parent":"%x","aru":%d,"arg1":%d,"arg2":%d}}`,
			chromeTracePID, int(s.Kind), strconv.Quote(s.Kind.String()),
			ts, dur, s.Trace, s.ID, s.Parent, s.ARU, s.Arg1, s.Arg2)
	}

	// Flow arrows for every parent edge whose parent survived in the
	// snapshot. The flow id is the child span id (unique per edge).
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		comma()
		fmt.Fprintf(bw, `{"ph":"s","pid":%d,"tid":%d,"name":"causes","cat":"aru","id":%d,"ts":%.3f}`,
			chromeTracePID, int(p.Kind), s.ID, float64(p.Start)/1e3)
		comma()
		fmt.Fprintf(bw, `{"ph":"f","bp":"e","pid":%d,"tid":%d,"name":"causes","cat":"aru","id":%d,"ts":%.3f}`,
			chromeTracePID, int(s.Kind), s.ID, float64(s.Start)/1e3)
	}

	// Batch-causality arrows: a commit-durable span names its batch in
	// Arg1 (the batch lives on its own trace, so there is no parent
	// edge), and the arrow makes "every durable ack names its sync"
	// visible as commit-durable → commit-batch. Flow ids continue past
	// the span-id space via the high bit to stay unique.
	batchByID := map[uint64]*Span{}
	for i := range spans {
		if s := &spans[i]; s.Kind == SpanCommitBatch {
			batchByID[s.Arg1] = s
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Kind != SpanCommitDurable || s.Arg1 == 0 {
			continue
		}
		b, ok := batchByID[s.Arg1]
		if !ok {
			continue
		}
		flowID := s.ID | (1 << 63)
		comma()
		fmt.Fprintf(bw, `{"ph":"s","pid":%d,"tid":%d,"name":"durable-in-batch","cat":"aru","id":%d,"ts":%.3f}`,
			chromeTracePID, int(s.Kind), flowID, float64(s.Start)/1e3)
		comma()
		fmt.Fprintf(bw, `{"ph":"f","bp":"e","pid":%d,"tid":%d,"name":"durable-in-batch","cat":"aru","id":%d,"ts":%.3f}`,
			chromeTracePID, int(b.Kind), flowID, float64(b.Start)/1e3)
	}

	bw.WriteString("]}\n")
	return bw.Flush()
}

// TraceHandler serves the tracer's current span snapshot as Chrome
// trace-event JSON (the /debug/trace endpoint). A nil or span-disabled
// tracer serves an empty (still loadable) trace.
func TraceHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="aru-trace.json"`)
		_ = WriteChromeTrace(w, t.Spans())
	})
}
