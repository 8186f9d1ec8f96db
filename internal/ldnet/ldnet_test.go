package ldnet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/seg"
)

// newBackend formats a fresh logical disk on an in-memory device.
func newBackend(t testing.TB, segs int) (*core.LLD, *disk.Sim) {
	t.Helper()
	layout := seg.DefaultLayout(segs)
	dev := disk.NewMem(layout.DiskBytes())
	d, err := core.Format(dev, core.Params{Layout: layout})
	if err != nil {
		t.Fatalf("format: %v", err)
	}
	return d, dev
}

// startServer serves backend on a loopback listener and returns its
// address. The server is shut down with the test.
func startServer(t testing.TB, backend Backend) (*Server, string) {
	t.Helper()
	srv := NewServer(backend, ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// dialT dials with test-friendly timeouts.
func dialT(t testing.TB, addr string) *Client {
	t.Helper()
	cl, err := Dial(addr, ClientConfig{RPCTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func pattern(b core.BlockID, n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(uint64(b)*31 + uint64(i))
	}
	return buf
}

// TestRemoteReadSemantics runs the option-3 visibility suite through
// the network client: an ARU reads its own shadow state, simple reads
// see only the committed state, and commit publishes atomically —
// the same guarantees the in-process facade gives.
func TestRemoteReadSemantics(t *testing.T) {
	backend, _ := newBackend(t, 16)
	_, addr := startServer(t, backend)
	cl := dialT(t, addr)

	bs := cl.BlockSize()
	if bs != backend.BlockSize() {
		t.Fatalf("handshake block size %d, want %d", bs, backend.BlockSize())
	}

	lst, err := cl.NewList(seg.SimpleARU)
	if err != nil {
		t.Fatalf("NewList: %v", err)
	}
	blk, err := cl.NewBlock(seg.SimpleARU, lst, core.NilBlock)
	if err != nil {
		t.Fatalf("NewBlock: %v", err)
	}
	committed := pattern(blk, bs)
	if err := cl.Write(seg.SimpleARU, blk, committed); err != nil {
		t.Fatalf("simple write: %v", err)
	}

	a, err := cl.BeginARU()
	if err != nil {
		t.Fatalf("BeginARU: %v", err)
	}
	shadow := bytes.Repeat([]byte{0xAB}, bs)
	if err := cl.Write(a, blk, shadow); err != nil {
		t.Fatalf("shadow write: %v", err)
	}

	// The ARU sees its own shadow.
	got := make([]byte, bs)
	if err := cl.Read(a, blk, got); err != nil {
		t.Fatalf("ARU read: %v", err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatalf("ARU read did not return its own shadow write")
	}
	// A simple read — same client and a second client — sees committed.
	if err := cl.Read(seg.SimpleARU, blk, got); err != nil {
		t.Fatalf("simple read: %v", err)
	}
	if !bytes.Equal(got, committed) {
		t.Fatalf("simple read leaked shadow state")
	}
	cl2 := dialT(t, addr)
	if err := cl2.Read(seg.SimpleARU, blk, got); err != nil {
		t.Fatalf("second client read: %v", err)
	}
	if !bytes.Equal(got, committed) {
		t.Fatalf("second client saw uncommitted shadow state")
	}

	// Commit publishes the shadow version.
	if err := cl.EndARU(a); err != nil {
		t.Fatalf("EndARU: %v", err)
	}
	if err := cl2.Read(seg.SimpleARU, blk, got); err != nil {
		t.Fatalf("post-commit read: %v", err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatalf("commit did not publish the shadow version")
	}
}

// TestRemoteListOpsAndErrors covers the list surface and error
// mapping: structure ops round-trip, and sentinel errors survive the
// wire for errors.Is.
func TestRemoteListOpsAndErrors(t *testing.T) {
	backend, _ := newBackend(t, 16)
	_, addr := startServer(t, backend)
	cl := dialT(t, addr)

	lst, err := cl.NewList(seg.SimpleARU)
	if err != nil {
		t.Fatalf("NewList: %v", err)
	}
	var blocks []core.BlockID
	prev := core.NilBlock
	for i := 0; i < 4; i++ {
		b, err := cl.NewBlock(seg.SimpleARU, lst, prev)
		if err != nil {
			t.Fatalf("NewBlock %d: %v", i, err)
		}
		blocks = append(blocks, b)
		prev = b
	}
	got, err := cl.ListBlocks(seg.SimpleARU, lst)
	if err != nil {
		t.Fatalf("ListBlocks: %v", err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("ListBlocks returned %d blocks, want %d", len(got), len(blocks))
	}
	for i := range got {
		if got[i] != blocks[i] {
			t.Fatalf("ListBlocks order mismatch at %d: %d != %d", i, got[i], blocks[i])
		}
	}

	lst2, err := cl.NewList(seg.SimpleARU)
	if err != nil {
		t.Fatalf("NewList 2: %v", err)
	}
	if err := cl.MoveBlock(seg.SimpleARU, blocks[0], lst2, core.NilBlock); err != nil {
		t.Fatalf("MoveBlock: %v", err)
	}
	moved, err := cl.ListBlocks(seg.SimpleARU, lst2)
	if err != nil || len(moved) != 1 || moved[0] != blocks[0] {
		t.Fatalf("MoveBlock result: %v %v", moved, err)
	}

	bi, err := cl.StatBlock(seg.SimpleARU, blocks[1])
	if err != nil {
		t.Fatalf("StatBlock: %v", err)
	}
	if bi.ID != blocks[1] || bi.List != lst {
		t.Fatalf("StatBlock returned %+v", bi)
	}

	lists, err := cl.Lists(seg.SimpleARU)
	if err != nil || len(lists) != 2 {
		t.Fatalf("Lists: %v %v", lists, err)
	}

	if err := cl.DeleteBlock(seg.SimpleARU, blocks[1]); err != nil {
		t.Fatalf("DeleteBlock: %v", err)
	}
	if err := cl.DeleteList(seg.SimpleARU, lst2); err != nil {
		t.Fatalf("DeleteList: %v", err)
	}

	// Sentinel errors cross the wire.
	buf := make([]byte, cl.BlockSize())
	if err := cl.Read(seg.SimpleARU, 999999, buf); !errors.Is(err, core.ErrNoSuchBlock) {
		t.Fatalf("read of unknown block: got %v, want ErrNoSuchBlock", err)
	}
	if _, err := cl.ListBlocks(seg.SimpleARU, 999999); !errors.Is(err, core.ErrNoSuchList) {
		t.Fatalf("ListBlocks of unknown list: got %v, want ErrNoSuchList", err)
	}
	if err := cl.EndARU(12345); !errors.Is(err, core.ErrNoSuchARU) {
		t.Fatalf("EndARU of unknown ARU: got %v, want ErrNoSuchARU", err)
	}

	// Stats round-trips with real counters.
	st, err := cl.StatsRPC()
	if err != nil {
		t.Fatalf("StatsRPC: %v", err)
	}
	if st.NewBlocks < 4 || st.Reads < 1 {
		t.Fatalf("remote stats look empty: %+v", st)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
}

// TestSessionOwnership: a session may not operate on, commit or abort
// an ARU another session began — from its point of view the ARU does
// not exist.
func TestSessionOwnership(t *testing.T) {
	backend, _ := newBackend(t, 16)
	_, addr := startServer(t, backend)
	cl1 := dialT(t, addr)
	cl2 := dialT(t, addr)

	a, err := cl1.BeginARU()
	if err != nil {
		t.Fatalf("BeginARU: %v", err)
	}
	if err := cl2.EndARU(a); !errors.Is(err, core.ErrNoSuchARU) {
		t.Fatalf("foreign EndARU: got %v, want ErrNoSuchARU", err)
	}
	if err := cl2.AbortARU(a); !errors.Is(err, core.ErrNoSuchARU) {
		t.Fatalf("foreign AbortARU: got %v, want ErrNoSuchARU", err)
	}
	if _, err := cl2.NewList(a); !errors.Is(err, core.ErrNoSuchARU) {
		t.Fatalf("foreign NewList: got %v, want ErrNoSuchARU", err)
	}
	// The owner can still commit it.
	if err := cl1.EndARU(a); err != nil {
		t.Fatalf("owner EndARU: %v", err)
	}
}

// TestAbortOnDisconnect is the crash-semantics extension to client
// failure: kill a client mid-ARU and the server aborts its units —
// the shadow writes never become visible, and after a server restart
// the consistency sweep frees the blocks the ARU had allocated.
func TestAbortOnDisconnect(t *testing.T) {
	backend, dev := newBackend(t, 16)
	srv, addr := startServer(t, backend)
	bs := backend.BlockSize()

	cl1 := dialT(t, addr)
	lst, err := cl1.NewList(seg.SimpleARU)
	if err != nil {
		t.Fatalf("NewList: %v", err)
	}
	a, err := cl1.BeginARU()
	if err != nil {
		t.Fatalf("BeginARU: %v", err)
	}
	blk, err := cl1.NewBlock(a, lst, core.NilBlock)
	if err != nil {
		t.Fatalf("NewBlock: %v", err)
	}
	shadow := bytes.Repeat([]byte{0xEE}, bs)
	if err := cl1.Write(a, blk, shadow); err != nil {
		t.Fatalf("shadow write: %v", err)
	}
	// Sanity: the ARU sees its own shadow before dying.
	got := make([]byte, bs)
	if err := cl1.Read(a, blk, got); err != nil || !bytes.Equal(got, shadow) {
		t.Fatalf("pre-crash shadow read: %v", err)
	}
	if n := openARUs(backend); n != 1 {
		t.Fatalf("%d ARUs active before the crash, want 1", n)
	}

	// Kill the client mid-ARU (no EndARU, no goodbye).
	cl1.Close()

	// The server must abort the orphaned ARU.
	deadline := time.Now().Add(5 * time.Second)
	for openARUs(backend) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server did not abort the orphaned ARU within 5s (%d active)", openARUs(backend))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := srv.Metrics().AbortsOnDisconnect(); n != 1 {
		t.Fatalf("AbortsOnDisconnect = %d, want 1", n)
	}
	if st := backend.Stats(); st.ARUsAborted != 1 {
		t.Fatalf("backend ARUsAborted = %d, want 1", st.ARUsAborted)
	}

	// A second client never sees the shadow write: the block is
	// allocated (committed-state allocation) but on no list and
	// without contents.
	cl2 := dialT(t, addr)
	bi, err := cl2.StatBlock(seg.SimpleARU, blk)
	if err != nil {
		t.Fatalf("StatBlock of leaked block: %v", err)
	}
	if bi.List != core.NilList || bi.HasData {
		t.Fatalf("leaked block became visible: %+v", bi)
	}
	if err := cl2.Read(seg.SimpleARU, blk, got); err != nil {
		t.Fatalf("simple read of leaked block: %v", err)
	}
	if bytes.Equal(got, shadow) {
		t.Fatalf("aborted shadow write is visible to a second client")
	}

	// Restart the server on the persisted image: recovery's
	// consistency sweep frees the leaked allocation.
	if err := cl2.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	srv.Close()
	if err := backend.Close(); err != nil {
		t.Fatalf("close backend: %v", err)
	}
	dev2 := dev.Reopen(dev.Image())
	backend2, rep, err := core.OpenReport(dev2, core.Params{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer backend2.Close()
	if rep.LeakedFreed == 0 && backend2.Stats().LeakedBlocksFreed == 0 {
		t.Fatalf("restart did not sweep the leaked allocation (report %+v)", rep)
	}
	_, addr2 := startServer(t, backend2)
	cl3 := dialT(t, addr2)
	if _, err := cl3.StatBlock(seg.SimpleARU, blk); !errors.Is(err, core.ErrNoSuchBlock) {
		t.Fatalf("leaked block survived the sweep: %v", err)
	}
}

// TestCleanCloseAbortsToo: a polite Close without EndARU is the same
// client failure as a crash — the server still aborts. BeginARU does
// not wait for the server, so an awaited request under the handle
// first proves the unit exists there; without it Close could drop the
// buffered begin and leave nothing to abort.
func TestCleanCloseAbortsToo(t *testing.T) {
	backend, _ := newBackend(t, 16)
	_, addr := startServer(t, backend)
	cl := dialT(t, addr)
	a, err := cl.BeginARU()
	if err != nil {
		t.Fatalf("BeginARU: %v", err)
	}
	if _, err := cl.NewList(a); err != nil {
		t.Fatalf("NewList: %v", err)
	}
	if n := openARUs(backend); n != 1 {
		t.Fatalf("%d ARUs active before Close, want 1", n)
	}
	cl.Close()
	waitActiveARUs(t, backend, 0)
}

// openARUs is the number of units begun on backend and not yet ended
// or aborted.
func openARUs(backend *core.LLD) int64 {
	st := backend.Stats()
	return st.ARUsBegun - st.ARUsCommitted - st.ARUsAborted
}

// waitActiveARUs waits until the backend has n open ARUs.
func waitActiveARUs(t *testing.T, backend *core.LLD, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for openARUs(backend) != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d ARUs active after 5s, want %d", openARUs(backend), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// acceptedConns is a listener that also hands the test every
// connection it accepts, so the test can drop one server-side.
type acceptedConns struct {
	net.Listener
	conns chan net.Conn
}

func (l acceptedConns) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.conns <- conn
	}
	return conn, err
}

// TestHandleNotReusedAcrossReconnect: the server drops the connection
// mid-unit. The unit's handle then names nothing on the client's next
// session — it fails with ErrNoSuchARU there — and never reaches the
// unit begun after the redial.
func TestHandleNotReusedAcrossReconnect(t *testing.T) {
	backend, _ := newBackend(t, 16)
	srv := NewServer(backend, ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	// One slot per connection the test makes, so Accept never blocks.
	accepted := acceptedConns{Listener: ln, conns: make(chan net.Conn, 2)}
	go srv.Serve(accepted)
	t.Cleanup(func() { srv.Close() })
	cl := dialT(t, ln.Addr().String())
	bs := cl.BlockSize()

	lst, err := cl.NewList(seg.SimpleARU)
	if err != nil {
		t.Fatalf("NewList: %v", err)
	}
	blk, err := cl.NewBlock(seg.SimpleARU, lst, core.NilBlock)
	if err != nil {
		t.Fatalf("NewBlock: %v", err)
	}
	old, err := cl.BeginARU()
	if err != nil {
		t.Fatalf("BeginARU: %v", err)
	}
	if err := cl.Write(old, blk, bytes.Repeat([]byte{1}, bs)); err != nil {
		t.Fatalf("write under the first unit: %v", err)
	}
	if n := openARUs(backend); n != 1 {
		t.Fatalf("%d ARUs active, want 1", n)
	}

	// The server drops the connection mid-unit and aborts the unit.
	(<-accepted.conns).Close()
	waitActiveARUs(t, backend, 0)
	// Ping is retried: it notices the broken connection and redials.
	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping across the drop: %v", err)
	}

	a, err := cl.BeginARU()
	if err != nil {
		t.Fatalf("BeginARU after the redial: %v", err)
	}
	if a == old {
		t.Fatalf("handle %d issued again after the redial", a)
	}
	mine := bytes.Repeat([]byte{2}, bs)
	if err := cl.Write(a, blk, mine); err != nil {
		t.Fatalf("write under the new unit: %v", err)
	}

	// The stale handle names nothing on the new session...
	if err := cl.Write(old, blk, bytes.Repeat([]byte{3}, bs)); !errors.Is(err, core.ErrNoSuchARU) {
		t.Fatalf("write under the stale handle: got %v, want ErrNoSuchARU", err)
	}
	if err := cl.EndARU(old); !errors.Is(err, core.ErrNoSuchARU) {
		t.Fatalf("EndARU of the stale handle: got %v, want ErrNoSuchARU", err)
	}
	// ...and never reached the new unit: it is still open and commits
	// its own write only.
	if n := openARUs(backend); n != 1 {
		t.Fatalf("%d ARUs active, want the new unit only", n)
	}
	if err := cl.EndARU(a); err != nil {
		t.Fatalf("EndARU of the new unit: %v", err)
	}
	got := make([]byte, bs)
	if err := cl.Read(seg.SimpleARU, blk, got); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, mine) {
		t.Fatalf("committed block starts %x, want the new unit's %x", got[0], mine[0])
	}
}

// TestBeginFailureSurfaces: a begin the engine refuses — a second unit
// on the sequential VariantOld engine — still returns a handle at
// once. The refusal surfaces, with its class, on the requests naming
// the handle; EndARU or AbortARU reports it once and forgets the
// handle.
func TestBeginFailureSurfaces(t *testing.T) {
	layout := seg.DefaultLayout(16)
	backend, err := core.Format(disk.NewMem(layout.DiskBytes()), core.Params{Layout: layout, Variant: core.VariantOld})
	if err != nil {
		t.Fatalf("format: %v", err)
	}
	t.Cleanup(func() { backend.Close() })
	_, addr := startServer(t, backend)
	cl := dialT(t, addr)
	buf := make([]byte, cl.BlockSize())

	lst, err := cl.NewList(seg.SimpleARU)
	if err != nil {
		t.Fatalf("NewList: %v", err)
	}
	blk, err := cl.NewBlock(seg.SimpleARU, lst, core.NilBlock)
	if err != nil {
		t.Fatalf("NewBlock: %v", err)
	}
	open, err := cl.BeginARU()
	if err != nil {
		t.Fatalf("BeginARU: %v", err)
	}
	if err := cl.Write(open, blk, buf); err != nil {
		t.Fatalf("write under the open unit: %v", err)
	}

	for _, end := range []struct {
		name string
		f    func(core.ARUID) error
	}{{"EndARU", cl.EndARU}, {"AbortARU", cl.AbortARU}} {
		h, err := cl.BeginARU()
		if err != nil {
			t.Fatalf("BeginARU with a unit open: %v, want a handle (the refusal comes later)", err)
		}
		if err := cl.Write(h, blk, buf); !errors.Is(err, core.ErrARUActive) {
			t.Fatalf("write under a refused begin: got %v, want ErrARUActive", err)
		}
		if err := end.f(h); !errors.Is(err, core.ErrARUActive) {
			t.Fatalf("%s of a refused begin: got %v, want ErrARUActive", end.name, err)
		}
		if err := cl.Write(h, blk, buf); !errors.Is(err, core.ErrNoSuchARU) {
			t.Fatalf("write after %s forgot the handle: got %v, want ErrNoSuchARU", end.name, err)
		}
	}
	// The unit that was open is untouched by the refusals and commits.
	if err := cl.EndARU(open); err != nil {
		t.Fatalf("EndARU of the open unit: %v", err)
	}
	if n := openARUs(backend); n != 0 {
		t.Fatalf("%d ARUs left open", n)
	}
}

// TestConcurrentClients hammers one server with several connections,
// each running ARUs against its own list, plus goroutines sharing one
// client to exercise pipelined out-of-order completion. Run under
// -race in CI.
func TestConcurrentClients(t *testing.T) {
	backend, _ := newBackend(t, 64)
	_, addr := startServer(t, backend)
	bs := backend.BlockSize()

	const clients = 4
	iters := 20
	if testing.Short() {
		iters = 8
	}

	var wg sync.WaitGroup
	errc := make(chan error, clients*2)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr, ClientConfig{})
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			lst, err := cl.NewList(seg.SimpleARU)
			if err != nil {
				errc <- err
				return
			}
			buf := make([]byte, bs)
			for i := 0; i < iters; i++ {
				a, err := cl.BeginARU()
				if err != nil {
					errc <- err
					return
				}
				// Pipeline the unit's writes: issue all, then wait.
				var calls []*Call
				var blks []core.BlockID
				for j := 0; j < 3; j++ {
					b, err := cl.NewBlock(a, lst, core.NilBlock)
					if err != nil {
						errc <- err
						return
					}
					blks = append(blks, b)
					calls = append(calls, cl.WriteAsync(a, b, pattern(b, bs)))
				}
				for _, call := range calls {
					if err := call.Wait(); err != nil {
						errc <- err
						return
					}
				}
				b := blks[i%len(blks)]
				if err := cl.Read(a, b, buf); err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(buf, pattern(b, bs)) {
					errc <- fmt.Errorf("client %d: shadow readback mismatch", c)
					return
				}
				if i%5 == 4 {
					err = cl.AbortARU(a)
				} else {
					err = cl.EndARU(a)
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("concurrent client: %v", err)
	}
	if openARUs(backend) != 0 {
		t.Fatalf("%d ARUs left open", openARUs(backend))
	}
	if err := backend.VerifyInternal(); err != nil {
		t.Fatalf("backend invariants violated: %v", err)
	}
}

// TestSharedClientPipelining drives one client from many goroutines:
// request ids must demultiplex responses correctly even when calls
// complete out of issue order.
func TestSharedClientPipelining(t *testing.T) {
	backend, _ := newBackend(t, 32)
	_, addr := startServer(t, backend)
	cl := dialT(t, addr)
	bs := cl.BlockSize()

	lst, err := cl.NewList(seg.SimpleARU)
	if err != nil {
		t.Fatalf("NewList: %v", err)
	}
	const blocks = 8
	ids := make([]core.BlockID, blocks)
	for i := range ids {
		b, err := cl.NewBlock(seg.SimpleARU, lst, core.NilBlock)
		if err != nil {
			t.Fatalf("NewBlock: %v", err)
		}
		ids[i] = b
		if err := cl.Write(seg.SimpleARU, b, pattern(b, bs)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, bs)
			for i := 0; i < 50; i++ {
				b := ids[(g+i)%blocks]
				if err := cl.Read(seg.SimpleARU, b, buf); err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(buf, pattern(b, bs)) {
					errc <- fmt.Errorf("goroutine %d: cross-wired response for block %d", g, b)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("shared client: %v", err)
	}
}

// TestReadRetryAfterServerRestart: idempotent reads reconnect with
// backoff and succeed against a restarted server on the same address;
// an ARU surviving the client's view of the world is correctly gone.
func TestReadRetryAfterServerRestart(t *testing.T) {
	backend, _ := newBackend(t, 16)
	srv := NewServer(backend, ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	go srv.Serve(ln)

	cl, err := Dial(addr, ClientConfig{ReadRetries: 8, RetryBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	bs := cl.BlockSize()
	lst, err := cl.NewList(seg.SimpleARU)
	if err != nil {
		t.Fatalf("NewList: %v", err)
	}
	blk, err := cl.NewBlock(seg.SimpleARU, lst, core.NilBlock)
	if err != nil {
		t.Fatalf("NewBlock: %v", err)
	}
	if err := cl.Write(seg.SimpleARU, blk, pattern(blk, bs)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	a, err := cl.BeginARU()
	if err != nil {
		t.Fatalf("BeginARU: %v", err)
	}

	// Bounce the server: connections drop, the ARU is aborted.
	srv.Close()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv2 := NewServer(backend, ServerOptions{})
	go srv2.Serve(ln2)
	defer srv2.Close()

	// The idempotent read reconnects and succeeds.
	buf := make([]byte, bs)
	if err := cl.Read(seg.SimpleARU, blk, buf); err != nil {
		t.Fatalf("read across restart: %v", err)
	}
	if !bytes.Equal(buf, pattern(blk, bs)) {
		t.Fatalf("read across restart returned wrong data")
	}
	// The old ARU died with the old connection.
	if err := cl.EndARU(a); !errors.Is(err, core.ErrNoSuchARU) {
		t.Fatalf("EndARU of pre-restart ARU: got %v, want ErrNoSuchARU", err)
	}
}
