package ldnet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/obs"
	"aru/internal/seg"
)

func spansByKind(spans []obs.Span) map[obs.SpanKind][]obs.Span {
	m := map[obs.SpanKind][]obs.Span{}
	for _, s := range spans {
		m[s.Kind] = append(m[s.Kind], s)
	}
	return m
}

// TestTraceChainEndToEnd is the tentpole acceptance test at the wire
// layer: one traced remote durable commit must yield the connected
// span chain client-rpc → server-op → engine-commit → commit-durable,
// with the durable ack naming a batch and sync whose spans exist —
// and the whole thing must export as loadable Chrome trace JSON.
func TestTraceChainEndToEnd(t *testing.T) {
	// Client, server and engine share one tracer so the full chain
	// lands in a single ring (in production these are two processes
	// and two rings; the ids still line up because the client's ids
	// travel on the wire).
	tr := obs.New(obs.Config{})
	d := newBackendTraced(t, 64, tr)

	srv := NewServer(d, ServerOptions{Tracer: tr})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	cl, err := Dial(ln.Addr().String(), ClientConfig{RPCTimeout: 10 * time.Second, Tracer: tr})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	aru, err := cl.BeginARU()
	if err != nil {
		t.Fatalf("BeginARU: %v", err)
	}
	lst, err := cl.NewList(aru)
	if err != nil {
		t.Fatalf("NewList: %v", err)
	}
	blk, err := cl.NewBlock(aru, lst, core.NilBlock)
	if err != nil {
		t.Fatalf("NewBlock: %v", err)
	}
	if err := cl.Write(aru, blk, pattern(blk, cl.BlockSize())); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := cl.CommitDurable(aru); err != nil {
		t.Fatalf("CommitDurable: %v", err)
	}

	byKind := spansByKind(tr.Spans())

	// The client-rpc span of the CommitDurable call (Arg1 carries the
	// opcode).
	var rpc *obs.Span
	for i, s := range byKind[obs.SpanClientRPC] {
		if s.Arg1 == uint64(opCommitDurable) {
			rpc = &byKind[obs.SpanClientRPC][i]
		}
	}
	if rpc == nil {
		t.Fatalf("no client-rpc span for commit_durable (rpcs: %+v)", byKind[obs.SpanClientRPC])
	}
	if rpc.Arg2 != 0 {
		t.Fatalf("commit_durable rpc span marked failed: %+v", rpc)
	}

	// The server-op span continues the client's trace.
	var op *obs.Span
	for i, s := range byKind[obs.SpanServerOp] {
		if s.Parent == rpc.ID {
			op = &byKind[obs.SpanServerOp][i]
		}
	}
	if op == nil {
		t.Fatalf("no server-op span parented on the rpc span %x (ops: %+v)", rpc.ID, byKind[obs.SpanServerOp])
	}
	if op.Trace != rpc.Trace || op.Arg1 != uint64(opCommitDurable) || op.ARU != uint64(aru) {
		t.Fatalf("server-op span does not continue the wire context: %+v want trace %x", op, rpc.Trace)
	}

	// The engine commit chains below the server op, the durable ack
	// below the commit.
	var ec *obs.Span
	for i, s := range byKind[obs.SpanEngineCommit] {
		if s.Parent == op.ID {
			ec = &byKind[obs.SpanEngineCommit][i]
		}
	}
	if ec == nil {
		t.Fatalf("no engine-commit span parented on the server op (commits: %+v)", byKind[obs.SpanEngineCommit])
	}
	var cd *obs.Span
	for i, s := range byKind[obs.SpanCommitDurable] {
		if s.Parent == ec.ID {
			cd = &byKind[obs.SpanCommitDurable][i]
		}
	}
	if cd == nil {
		t.Fatalf("no commit-durable span parented on the engine commit (durables: %+v)", byKind[obs.SpanCommitDurable])
	}
	if cd.Trace != rpc.Trace {
		t.Fatalf("durable ack left the trace: %+v", cd)
	}
	if cd.Arg1 == 0 || cd.Arg2 == 0 {
		t.Fatalf("durable ack does not name its batch and sync: %+v", cd)
	}

	// The named batch and sync exist as spans (batch causality).
	var batch *obs.Span
	for i, b := range byKind[obs.SpanCommitBatch] {
		if b.Arg1 == cd.Arg1 {
			batch = &byKind[obs.SpanCommitBatch][i]
		}
	}
	if batch == nil {
		t.Fatalf("no commit-batch span with batch id %d", cd.Arg1)
	}
	foundSync := false
	for _, s := range byKind[obs.SpanDeviceSync] {
		if s.Arg1 == cd.Arg2 && s.Parent == batch.ID {
			foundSync = true
		}
	}
	if !foundSync {
		t.Fatalf("no device-sync span with sync id %d under batch %x", cd.Arg2, batch.ID)
	}

	// The exported trace is valid JSON with the chain's flow arrows.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tr.Spans()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	var flows, durableFlows int
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "s" {
			flows++
			if ev["name"] == "durable-in-batch" {
				durableFlows++
			}
		}
	}
	if flows < 4 {
		t.Fatalf("exported trace has %d flow starts, want >= 4 (the commit chain)", flows)
	}
	if durableFlows == 0 {
		t.Fatal("exported trace has no durable-in-batch flow (batch causality)")
	}
}

// newBackendTraced is newBackend with a tracer attached to the engine.
func newBackendTraced(t testing.TB, segs int, tr *obs.Tracer) *core.LLD {
	t.Helper()
	layout := seg.DefaultLayout(segs)
	dev := disk.NewMem(layout.DiskBytes())
	d, err := core.Format(dev, core.Params{Layout: layout, Tracer: tr})
	if err != nil {
		t.Fatalf("format: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// TestInteropOldClientNewServer: a client that offers no features
// (flag-free HELLO, plain opcodes) against a tracing-enabled server
// must get exactly the base protocol — a flag-free handshake response
// and an error (not a drop) for the trace opcode bit it never
// negotiated.
func TestInteropOldClientNewServer(t *testing.T) {
	tr := obs.New(obs.Config{})
	backend, _ := newBackend(t, 16)
	srv := NewServer(backend, ServerOptions{Tracer: tr})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	// A flag-free handshake.
	conn, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	e := newEnc(16)
	e.u64(1)
	e.u8(opHello)
	e.u32(Magic)
	e.u16(Version)
	if err := writeFrame(conn, e.b, DefaultMaxFrame); err != nil {
		t.Fatalf("hello: %v", err)
	}
	br := bufio.NewReader(conn)
	frame, err := readFrame(br, DefaultMaxFrame)
	if err != nil {
		t.Fatalf("hello response: %v", err)
	}
	_, status, body, err := parseResponse(frame)
	if err != nil || status != statusOK {
		t.Fatalf("handshake rejected: status=%d err=%v", status, err)
	}
	// The flag-free response body is exactly u16 ver + u32 blockSize +
	// u32 maxFrame — no feature word the client did not ask for.
	if len(body) != 10 {
		t.Fatalf("handshake response is %d bytes, want the 10-byte flag-free form", len(body))
	}

	// A plain request works.
	e = newEnc(16)
	e.u64(2)
	e.u8(opPing)
	if err := writeFrame(conn, e.b, DefaultMaxFrame); err != nil {
		t.Fatalf("ping: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, err = readFrame(br, DefaultMaxFrame)
	if err != nil {
		t.Fatalf("ping response: %v", err)
	}
	if id, status, _, _ := parseResponse(frame); id != 2 || status != statusOK {
		t.Fatalf("ping response: id=%d status=%d", id, status)
	}

	// A trace-flagged opcode on this un-negotiated session is an
	// unknown opcode: answered with an error, connection intact.
	e = newEnc(32)
	e.u64(3)
	e.u8(opPing | opTraceFlag)
	e.u64(0x1111)
	e.u64(0x2222)
	if err := writeFrame(conn, e.b, DefaultMaxFrame); err != nil {
		t.Fatalf("traced ping: %v", err)
	}
	frame, err = readFrame(br, DefaultMaxFrame)
	if err != nil {
		t.Fatalf("server dropped instead of answering un-negotiated traced op: %v", err)
	}
	if id, status, _, _ := parseResponse(frame); id != 3 || status == statusOK {
		t.Fatalf("un-negotiated traced op: id=%d status=%d, want an error response", id, status)
	}

	// And no server-op spans were recorded for any of it.
	if ops := spansByKind(tr.Spans())[obs.SpanServerOp]; len(ops) != 0 {
		t.Fatalf("flag-free session produced %d server-op spans", len(ops))
	}
}

// dropFirstHello is a listener that reads the first bytes of the first
// connection it accepts and closes it mid-HELLO — a transient handshake
// failure — and hands every later connection to its caller.
type dropFirstHello struct {
	net.Listener
	dropped bool // touched only by the Serve goroutine's Accept loop
}

func (l *dropFirstHello) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil || l.dropped {
			return conn, err
		}
		l.dropped = true
		var hdr [4]byte
		_, _ = io.ReadFull(conn, hdr[:])
		conn.Close()
	}
}

// TestTracedDialNeverDowngrades: one failed extended HELLO must not
// cost a traced client its trace propagation. The failed Dial is an
// error, the next Dial negotiates FeatureTrace, and a traced EndARU
// continues on the server as a server-op span.
func TestTracedDialNeverDowngrades(t *testing.T) {
	tr := obs.New(obs.Config{})
	srv := NewServer(newBackendTraced(t, 16, tr), ServerOptions{Tracer: tr})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(&dropFirstHello{Listener: ln})
	defer srv.Close()

	cfg := ClientConfig{RPCTimeout: 10 * time.Second, Tracer: tr}
	if cl, err := Dial(ln.Addr().String(), cfg); err == nil {
		cl.mu.Lock()
		features := cl.features
		cl.mu.Unlock()
		cl.Close()
		t.Fatalf("Dial over a dropped HELLO succeeded with features %x, want an error", features)
	}
	cl, err := Dial(ln.Addr().String(), cfg)
	if err != nil {
		t.Fatalf("second dial: %v", err)
	}
	defer cl.Close()
	cl.mu.Lock()
	features := cl.features
	cl.mu.Unlock()
	if features&FeatureTrace == 0 {
		t.Fatalf("second dial negotiated features %x, want FeatureTrace", features)
	}
	aru, err := cl.BeginARU()
	if err != nil {
		t.Fatalf("BeginARU: %v", err)
	}
	if err := cl.EndARU(aru); err != nil {
		t.Fatalf("EndARU: %v", err)
	}
	for _, s := range spansByKind(tr.Spans())[obs.SpanServerOp] {
		if s.Arg1 == uint64(opEndARU) && s.ARU == uint64(aru) && s.Parent != 0 {
			return
		}
	}
	t.Fatal("the traced EndARU left no server-op span on the server")
}

// TestTraceNegotiationServerWithoutTracer: a tracing client against a
// current server with no tracer negotiates zero features and keeps
// spans local — the flag word round-trips, the feature does not.
func TestTraceNegotiationServerWithoutTracer(t *testing.T) {
	backend, _ := newBackend(t, 16)
	_, addr := startServer(t, backend) // ServerOptions zero: no tracer
	tr := obs.New(obs.Config{})
	cl, err := Dial(addr, ClientConfig{RPCTimeout: 10 * time.Second, Tracer: tr})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	cl.mu.Lock()
	features := cl.features
	cl.mu.Unlock()
	if features != 0 {
		t.Fatalf("negotiated features %x from a tracer-less server", features)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if rpcs := spansByKind(tr.Spans())[obs.SpanClientRPC]; len(rpcs) == 0 {
		t.Fatal("no client-local rpc spans recorded")
	}
}

// TestSlowOpLog: requests over the threshold produce one-line JSON
// records carrying op, ARU, span ids, batch id and duration.
func TestSlowOpLog(t *testing.T) {
	tr := obs.New(obs.Config{})
	backend, _ := newBackend(t, 64)
	var logBuf bytes.Buffer
	srv := NewServer(backend, ServerOptions{
		Tracer:  tr,
		SlowOp:  time.Nanosecond, // everything is slow
		SlowLog: &logBuf,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	cl, err := Dial(ln.Addr().String(), ClientConfig{RPCTimeout: 10 * time.Second, Tracer: tr})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	aru, err := cl.BeginARU()
	if err != nil {
		t.Fatalf("BeginARU: %v", err)
	}
	if err := cl.CommitDurable(aru); err != nil {
		t.Fatalf("CommitDurable: %v", err)
	}

	srv.slowMu.Lock()
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	srv.slowMu.Unlock()
	if len(lines) < 2 {
		t.Fatalf("got %d slow-op lines, want >= 2 (begin + commit)", len(lines))
	}
	var sawCommit bool
	for _, line := range lines {
		var rec struct {
			Op    string  `json:"slow_op"`
			ARU   uint64  `json:"aru"`
			Trace string  `json:"trace"`
			Span  string  `json:"span"`
			Batch uint64  `json:"batch"`
			DurMs float64 `json:"dur_ms"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("slow-op line is not valid JSON: %q: %v", line, err)
		}
		if rec.Op == "" || rec.DurMs < 0 {
			t.Fatalf("slow-op record incomplete: %q", line)
		}
		if rec.Op == "commit_durable" {
			sawCommit = true
			if rec.ARU != uint64(aru) || rec.Trace == "0" || rec.Span == "0" {
				t.Fatalf("commit_durable record missing ids: %q", line)
			}
			if rec.Batch == 0 {
				t.Fatalf("commit_durable record does not name a batch: %q", line)
			}
		}
	}
	if !sawCommit {
		t.Fatalf("no commit_durable slow-op record in %q", logBuf.String())
	}
}
