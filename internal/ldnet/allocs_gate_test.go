package ldnet

// Allocation-budget gates for the wire path (see internal/alloctest).
// The budgets are end-to-end: one measured operation spans the client
// encoder (inline header into Client.reqHdr), the server's request
// loop (reused scratch frame, per-session response encoder and read
// buffer, per-connection header scratch) and the client read loop
// (pooled response frames, pooled RPC timers). Before this pooling a
// pipelined write cost 11 allocs/op end to end; the gate holds the
// batch at ≤5 per write.

import (
	"net"
	"testing"
	"time"

	"aru/internal/alloctest"
	"aru/internal/core"
	"aru/internal/obs"
	"aru/internal/seg"
)

func gateClient(t *testing.T, blocks int) (*Client, []core.BlockID, []byte) {
	t.Helper()
	backend, _ := newBackend(t, 256)
	_, addr := startServer(t, backend)
	cl, err := Dial(addr, ClientConfig{RPCTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	lst, err := cl.NewList(seg.SimpleARU)
	if err != nil {
		t.Fatalf("NewList: %v", err)
	}
	buf := make([]byte, cl.BlockSize())
	ids := make([]core.BlockID, blocks)
	for i := range ids {
		blk, err := cl.NewBlock(seg.SimpleARU, lst, core.NilBlock)
		if err != nil {
			t.Fatalf("NewBlock: %v", err)
		}
		if err := cl.Write(seg.SimpleARU, blk, buf); err != nil {
			t.Fatalf("seed write: %v", err)
		}
		ids[i] = blk
	}
	return cl, ids, buf
}

// TestAllocsNetRoundtrip gates a fully serialized ping at 3 allocs:
// the Call and its done channel are two of them — nothing per-frame,
// and no flusher goroutine, since a synchronous call flushes inline
// (4 when it spawned one).
func TestAllocsNetRoundtrip(t *testing.T) {
	cl, _, _ := gateClient(t, 1)
	op := func() {
		if err := cl.Ping(); err != nil {
			t.Fatalf("ping: %v", err)
		}
	}
	for i := 0; i < 32; i++ {
		op()
	}
	alloctest.Check(t, "net roundtrip (ping)", 3, 200, op)
}

// TestAllocsNetUnit gates a whole served unit, shaped like the
// net_aru benchmark's op: BeginARU, three WriteAsync awaited together,
// EndARU and one simple Read — client, server session and engine —
// at the 17 allocs it measures. BeginARU registers no Call, and only
// the write batch spawns a flusher goroutine (22 when the begin waited
// for its reply and every call spawned one).
func TestAllocsNetUnit(t *testing.T) {
	cl, ids, buf := gateClient(t, 64)
	dst := make([]byte, len(buf))
	i := 0
	op := func() {
		a, err := cl.BeginARU()
		if err != nil {
			t.Fatalf("BeginARU: %v", err)
		}
		var calls [3]*Call
		for j := range calls {
			calls[j] = cl.WriteAsync(a, ids[(i+j)%len(ids)], buf)
		}
		for _, call := range calls {
			if err := call.Wait(); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
		if err := cl.EndARU(a); err != nil {
			t.Fatalf("EndARU: %v", err)
		}
		if err := cl.Read(seg.SimpleARU, ids[i%len(ids)], dst); err != nil {
			t.Fatalf("read: %v", err)
		}
		i++
	}
	for k := 0; k < 32; k++ {
		op()
	}
	alloctest.Check(t, "net unit", 17, 200, op)
}

// TestAllocsNetPipelinedWrite gates the pipelined block-write path —
// one of the PR's acceptance-gated hot paths. Each measured op is a
// window of 64 writes; the budget of 320 is 5 allocs per write,
// versus 11 before the pooled frame/header/timer work.
func TestAllocsNetPipelinedWrite(t *testing.T) {
	const window = 64
	cl, ids, buf := gateClient(t, 64)
	op := func() {
		calls := make([]*Call, window)
		for i := range calls {
			calls[i] = cl.WriteAsync(seg.SimpleARU, ids[i%len(ids)], buf)
		}
		for _, call := range calls {
			if err := call.Wait(); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
	}
	op()
	alloctest.Check(t, "pipelined write ×64", 320, 50, op)
}

// TestAllocsNetTracedRoundtrip gates the *traced* ping path: with
// spans enabled on both ends the only additions per request are the
// 16-byte wire context (encoded into the existing header scratch), the
// span fields on the Call, and two lock-free ring slots — so the
// budget is the same 3 allocs the untraced roundtrip gets.
func TestAllocsNetTracedRoundtrip(t *testing.T) {
	tr := obs.New(obs.Config{})
	backend := newBackendTraced(t, 256, tr)
	srv := NewServer(backend, ServerOptions{Tracer: tr})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(ln.Addr().String(), ClientConfig{RPCTimeout: 30 * time.Second, Tracer: tr})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	op := func() {
		if err := cl.Ping(); err != nil {
			t.Fatalf("ping: %v", err)
		}
	}
	for i := 0; i < 32; i++ {
		op()
	}
	alloctest.Check(t, "traced net roundtrip (ping)", 3, 200, op)
}

// TestAllocsNetPipelinedRead gates the read-side counterpart: the
// block-sized response bodies ride pooled frames released by Wait.
func TestAllocsNetPipelinedRead(t *testing.T) {
	const window = 64
	cl, ids, _ := gateClient(t, 64)
	op := func() {
		calls := make([]*Call, window)
		for i := range calls {
			calls[i] = cl.ReadAsync(seg.SimpleARU, ids[i%len(ids)])
		}
		for _, call := range calls {
			if err := call.Wait(); err != nil {
				t.Fatalf("read: %v", err)
			}
		}
	}
	op()
	alloctest.Check(t, "pipelined read ×64", 320, 50, op)
}
