package ldnet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"aru/internal/core"
	"aru/internal/obs"
	"aru/internal/seg"
)

// Backend is the LD surface: every operation of the LD API plus the
// ARU bracket. The server exposes it over the wire; *core.LLD, the
// sharded disk and *Client implement it, which makes the server
// composable (a proxy is a server whose backend is a client). The aru
// facade names it Interface (and NetBackend).
type Backend interface {
	// Read copies block b, as seen from the state of aru (the simple
	// ARU, 0, sees the committed state), into dst (exactly one block).
	Read(aru core.ARUID, b core.BlockID, dst []byte) error
	// Write replaces the contents of block b within the state of aru.
	Write(aru core.ARUID, b core.BlockID, data []byte) error
	// NewBlock allocates a block and inserts it into lst after pred
	// (NilBlock = head). The identifier is allocated in the committed
	// state even inside an ARU; the insertion is shadowed.
	NewBlock(aru core.ARUID, lst core.ListID, pred core.BlockID) (core.BlockID, error)
	// NewList allocates a new, empty list.
	NewList(aru core.ARUID) (core.ListID, error)
	// DeleteBlock removes block b (the paper's FreeBlock).
	DeleteBlock(aru core.ARUID, b core.BlockID) error
	// DeleteList removes list lst and every block on it.
	DeleteList(aru core.ARUID, lst core.ListID) error
	// MoveBlock moves block b to list lst after pred as one operation
	// of the issuing stream.
	MoveBlock(aru core.ARUID, b core.BlockID, lst core.ListID, pred core.BlockID) error
	// ListBlocks returns the members of lst, in order.
	ListBlocks(aru core.ARUID, lst core.ListID) ([]core.BlockID, error)
	// Lists returns the lists visible in the state of aru.
	Lists(aru core.ARUID) ([]core.ListID, error)
	// StatBlock returns the effective record of block b.
	StatBlock(aru core.ARUID, b core.BlockID) (core.BlockInfo, error)
	// BeginARU opens a new atomic recovery unit. A Client returns at
	// once with a handle it chose for the unit, without a round trip; a
	// begin the server refuses then fails the first call that names the
	// handle, with the same error (see Client.BeginARU).
	BeginARU() (core.ARUID, error)
	// EndARU commits the unit — atomicity, not durability.
	EndARU(aru core.ARUID) error
	// AbortARU discards the unit's shadow state; its identifier
	// allocations are swept by the next consistency check. Returns
	// ErrAbortUnsupported on the sequential (VariantOld) build.
	AbortARU(aru core.ARUID) error
	// CommitDurable is EndARU plus Flush.
	CommitDurable(aru core.ARUID) error
	// Flush forces all committed state to stable storage (the paper's
	// Sync).
	Flush() error
	// Stats returns the disk's operation counters (a Client returns the
	// zero Stats if the RPC fails; see Client.StatsRPC).
	Stats() core.Stats
	// BlockSize returns the disk's block size in bytes.
	BlockSize() int
	// Close releases the handle: a local disk shuts the engine down; a
	// Client only closes its connection (the server then aborts its
	// open ARUs — the remote disk stays up).
	Close() error
}

// TracedBackend is the optional tracing surface of a Backend: commit
// and flush entry points that accept the caller's span context, plus
// the id of the most recent group-commit batch (for the slow-op log).
// *core.LLD implements it; a server whose backend does not simply
// serves traced requests through the plain methods (the wire context
// then ends at the server-op span).
type TracedBackend interface {
	EndARUTraced(aru core.ARUID, sc obs.SpanContext) error
	FlushTraced(sc obs.SpanContext) error
	LastBatch() uint64
}

var _ TracedBackend = (*core.LLD)(nil)

// ServerOptions configures a Server; the zero value selects defaults.
type ServerOptions struct {
	// MaxFrame caps request/response frame sizes (default
	// DefaultMaxFrame, raised if the block size needs more).
	MaxFrame uint32
	// Logf, when non-nil, receives connection-level log lines
	// (accepts, protocol errors, aborts on disconnect).
	Logf func(format string, args ...any)
	// Tracer, when non-nil with spans enabled, makes the server offer
	// FeatureTrace at HELLO and record a server-op span for every
	// request that carries trace context (DESIGN.md §13).
	Tracer *obs.Tracer
	// SlowOp, when positive, logs every request slower than it as a
	// one-line JSON record (op, ARU, trace/span ids, last batch,
	// duration) to SlowLog. Zero disables the log.
	SlowOp time.Duration
	// SlowLog receives slow-op records (default os.Stderr).
	SlowLog io.Writer
}

// Server serves one Backend to any number of TCP clients. Each
// connection is one *session*: the ARUs a session begins are owned by
// it and named by handles its client chose — no other session may
// operate on or end them — and when the session ends for any reason
// (clean close, crash, network partition) every ARU it still owns is
// aborted, extending the paper's crash semantics to client failure:
// the shadow state is discarded and the blocks the ARU allocated are
// swept by the next consistency check.
type Server struct {
	backend  Backend
	traced   TracedBackend // backend's tracing surface, nil if absent
	opts     ServerOptions
	maxFrame uint32
	metrics  Metrics

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// slowMu serializes slow-op log lines across connections.
	slowMu sync.Mutex
}

// NewServer wraps backend in an unstarted server; call Serve with a
// listener to accept clients.
func NewServer(backend Backend, opts ServerOptions) *Server {
	maxFrame := opts.MaxFrame
	if maxFrame == 0 {
		maxFrame = DefaultMaxFrame
	}
	// A write frame must always fit: header + ids + one block.
	if need := uint32(backend.BlockSize() + 64); maxFrame < need {
		maxFrame = need
	}
	traced, _ := backend.(TracedBackend)
	return &Server{
		backend:  backend,
		traced:   traced,
		opts:     opts,
		maxFrame: maxFrame,
		conns:    make(map[net.Conn]struct{}),
	}
}

// Metrics returns the server's live network counters and per-RPC
// histograms.
func (s *Server) Metrics() *Metrics { return &s.metrics }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Serve accepts connections on ln until Close. It returns nil after
// Close, or the first non-temporary accept error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrClientClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, drops every client connection (aborting the
// ARUs each owned) and waits for the connection goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// session is the per-connection state. units is its handle table: a
// unit is named on the wire by a handle its client chose at BeginARU,
// and the table maps each handle this session began to the engine ARU
// the begin opened, or to the error it failed with. Only handles in
// the table, and Simple (0), may be named in requests.
type session struct {
	units map[core.ARUID]unit

	// Per-session scratch, reused across requests so the steady-state
	// request loop allocates nothing: the response-body encoder, the
	// read-response block buffer, and the id staging slice. Reuse is
	// safe because each response is fully copied into the connection's
	// write buffer before the next request is dispatched.
	enc     enc
	readBuf []byte
	ids     []uint64
}

// encReset returns the session's response encoder, emptied (capacity
// retained).
func (sess *session) encReset() *enc {
	sess.enc.b = sess.enc.b[:0]
	return &sess.enc
}

// unit is one handle-table entry: the engine ARU a begin opened, or
// the error the begin failed with, kept for the requests that name the
// handle (nobody waits for the begin's own reply).
type unit struct {
	aru core.ARUID
	err error
}

// resolve translates a handle named in a request into the engine ARU
// it stands for; Simple (0) stands for itself. A handle not in the
// table — never begun here, already ended, another session's, or one
// from before a reconnect — fails with ErrNoSuchARU: from this
// session's point of view the unit does not exist, which both enforces
// ownership and leaks nothing about other sessions. A handle whose
// begin failed fails with that error, its class intact.
func (sess *session) resolve(h core.ARUID) (core.ARUID, error) {
	if h == seg.SimpleARU {
		return seg.SimpleARU, nil
	}
	u, ok := sess.units[h]
	if !ok {
		return 0, fmt.Errorf("%w: unit %d is not open on this session", core.ErrNoSuchARU, h)
	}
	if u.err != nil {
		return 0, fmt.Errorf("unit %d: begin failed: %w", h, u.err)
	}
	return u.aru, nil
}

// release forgets handle h when err, the outcome of ending or aborting
// its unit, says the unit is gone: ended, or unknown to the engine.
func (sess *session) release(h core.ARUID, err error) error {
	if err == nil || errors.Is(err, core.ErrNoSuchARU) {
		delete(sess.units, h)
	}
	return err
}

func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	m := &s.metrics
	m.sessionsTotal.Add(1)
	m.sessionsActive.Add(1)
	defer m.sessionsActive.Add(-1)

	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)

	// Handshake: the first frame must be a well-formed HELLO.
	frame, err := readFrame(br, s.maxFrame)
	if err != nil {
		m.protoErrors.Add(1)
		s.logf("ldnet: %s: bad handshake frame: %v", conn.RemoteAddr(), err)
		return
	}
	reqID, op, args, err := parseRequest(frame, s.backend.BlockSize(), false)
	if err != nil || op != opHello || args.magic != Magic {
		m.protoErrors.Add(1)
		s.logf("ldnet: %s: bad handshake (op=%d err=%v)", conn.RemoteAddr(), op, err)
		return
	}
	if args.ver != Version {
		// Another version is told why before the drop: a version-1
		// client would wait for BeginARU's reply to learn the engine's
		// id, which this protocol no longer sends.
		m.protoErrors.Add(1)
		s.logf("ldnet: %s: refusing protocol version %d", conn.RemoteAddr(), args.ver)
		e := newEnc(96)
		e.u64(reqID)
		e.u8(codeGeneric)
		e.b = fmt.Appendf(e.b, "ldnet: protocol version %d is not supported; this server speaks version %d", args.ver, Version)
		if writeFrame(bw, e.b, s.maxFrame) == nil {
			_ = bw.Flush() // the connection closes either way
		}
		return
	}
	// Feature negotiation: grant the intersection of what the client
	// asked for and what this server supports. A flag-free HELLO gets
	// the flag-free response.
	var features uint32
	if args.hasFlags && s.opts.Tracer.SpanEnabled() {
		features = args.flags & FeatureTrace
	}
	e := newEnc(32)
	e.u64(reqID)
	e.u8(statusOK)
	e.u16(Version)
	e.u32(uint32(s.backend.BlockSize()))
	e.u32(s.maxFrame)
	if args.hasFlags {
		e.u32(features)
	}
	if writeFrame(bw, e.b, s.maxFrame) != nil || bw.Flush() != nil {
		return
	}
	allowTrace := features&FeatureTrace != 0

	sess := &session{units: make(map[core.ARUID]unit)}
	// Disconnect ≡ abort: whatever ends this connection, every ARU the
	// session still owns is aborted so its shadow state vanishes —
	// the same outcome a local crash of the client would have had.
	defer func() {
		n := 0
		for h, u := range sess.units {
			if u.err != nil {
				continue // the begin failed: no unit to abort
			}
			if err := s.backend.AbortARU(u.aru); err == nil {
				n++
			} else {
				s.logf("ldnet: %s: aborting unit %d (ARU %d) on disconnect: %v", conn.RemoteAddr(), h, u.aru, err)
			}
		}
		if n > 0 {
			m.abortsOnDisconnect.Add(int64(n))
			s.logf("ldnet: %s: aborted %d ARU(s) on disconnect", conn.RemoteAddr(), n)
		}
	}()

	// Requests are decoded into a reused scratch buffer: each one is
	// fully dispatched (and its payload copied by the engine) before
	// the next read overwrites it. pre is the response-header scratch
	// shared by every response on this connection (see writeResponse).
	var scratch []byte
	var pre [13]byte
	for {
		// Flush buffered responses only when about to block on the
		// socket: a pipelined burst of requests is answered with one
		// batched write.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
		frame, err := readFrameReuse(br, s.maxFrame, &scratch)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				m.protoErrors.Add(1)
				s.logf("ldnet: %s: dropping connection: %v", conn.RemoteAddr(), err)
			}
			return
		}
		reqID, op, args, err := parseRequest(frame, s.backend.BlockSize(), allowTrace)
		if err != nil {
			// An unknown opcode or malformed body on an otherwise
			// intact frame stream is answered, not fatal: framing is
			// still in sync.
			m.protoErrors.Add(1)
			if writeErr := writeResponse(bw, reqID, codeGeneric, []byte(err.Error()), s.maxFrame, &pre); writeErr != nil {
				return
			}
			continue
		}
		t0 := time.Now()
		// A traced request gets a server-op span; the engine spans it
		// triggers chain below that span, not the client's, so the
		// exported trace shows client-rpc → server-op → engine-commit.
		var opSpan obs.Active
		if args.trace != 0 {
			opSpan = s.opts.Tracer.Start(obs.SpanServerOp, obs.SpanContext{Trace: args.trace, Span: args.span})
			args.span = opSpan.Ctx().Span
		}
		status, body := s.dispatch(sess, op, args)
		dur := time.Since(t0)
		m.observe(op, dur, status == statusOK)
		opSpan.End(uint64(args.aru), uint64(op), uint64(status))
		if s.opts.SlowOp > 0 && dur >= s.opts.SlowOp {
			s.logSlowOp(op, args, dur, status)
		}
		if err := writeResponse(bw, reqID, status, body, s.maxFrame, &pre); err != nil {
			return
		}
	}
}

// endARU runs EndARU through the backend's tracing surface when the
// request carries trace context and the backend has one; the engine
// commit (and the durable ack it later earns) then chains below the
// server-op span in a.span.
func (s *Server) endARU(a reqArgs) error {
	if a.trace != 0 && s.traced != nil {
		return s.traced.EndARUTraced(a.aru, obs.SpanContext{Trace: a.trace, Span: a.span})
	}
	return s.backend.EndARU(a.aru)
}

// flush is Flush with the same trace-context threading as endARU.
func (s *Server) flush(a reqArgs) error {
	if a.trace != 0 && s.traced != nil {
		return s.traced.FlushTraced(obs.SpanContext{Trace: a.trace, Span: a.span})
	}
	return s.backend.Flush()
}

// logSlowOp writes the one-line JSON slow-op record: which op, which
// ARU, the span ids a trace viewer can look up, which group-commit
// batch was last made durable, and how long the op took.
func (s *Server) logSlowOp(op uint8, a reqArgs, dur time.Duration, status uint8) {
	w := s.opts.SlowLog
	if w == nil {
		w = os.Stderr
	}
	var batch uint64
	if s.traced != nil {
		batch = s.traced.LastBatch()
	}
	s.slowMu.Lock()
	fmt.Fprintf(w, "{\"slow_op\":%q,\"aru\":%d,\"trace\":\"%x\",\"span\":\"%x\",\"batch\":%d,\"status\":%d,\"dur_ms\":%.3f}\n",
		opName(op), a.aru, a.trace, a.span, batch, status, float64(dur)/float64(time.Millisecond))
	s.slowMu.Unlock()
}

// dispatch executes one decoded request against the backend and
// encodes the response body. Every request but begin_aru, sync, stats
// and ping names a unit handle (or Simple) in a.aru; dispatch resolves
// it first, so the cases see the engine's ARU there and the handle in h.
func (s *Server) dispatch(sess *session, op uint8, a reqArgs) (status uint8, body []byte) {
	fail := func(err error) (uint8, []byte) {
		return codeFor(err), []byte(err.Error())
	}
	h := a.aru
	switch op {
	case opBeginARU, opSync, opStats, opPing, opHello:
	default:
		aru, err := sess.resolve(h)
		if err != nil {
			if op == opEndARU || op == opAbortARU || op == opCommitDurable {
				delete(sess.units, h) // ending a failed begin reports it once
			}
			return fail(err)
		}
		a.aru = aru
	}
	switch op {
	case opRead:
		if bs := s.backend.BlockSize(); cap(sess.readBuf) < bs {
			sess.readBuf = make([]byte, bs)
		} else {
			sess.readBuf = sess.readBuf[:bs]
		}
		if err := s.backend.Read(a.aru, a.blk, sess.readBuf); err != nil {
			return fail(err)
		}
		return statusOK, sess.readBuf
	case opWrite:
		if err := s.backend.Write(a.aru, a.blk, a.data); err != nil {
			return fail(err)
		}
		return statusOK, nil
	case opNewBlock:
		id, err := s.backend.NewBlock(a.aru, a.lst, a.pred)
		if err != nil {
			return fail(err)
		}
		e := sess.encReset()
		e.u64(uint64(id))
		return statusOK, e.b
	case opNewList:
		id, err := s.backend.NewList(a.aru)
		if err != nil {
			return fail(err)
		}
		e := sess.encReset()
		e.u64(uint64(id))
		return statusOK, e.b
	case opFreeBlock:
		if err := s.backend.DeleteBlock(a.aru, a.blk); err != nil {
			return fail(err)
		}
		return statusOK, nil
	case opFreeList:
		if err := s.backend.DeleteList(a.aru, a.lst); err != nil {
			return fail(err)
		}
		return statusOK, nil
	case opMoveBlock:
		if err := s.backend.MoveBlock(a.aru, a.blk, a.lst, a.pred); err != nil {
			return fail(err)
		}
		return statusOK, nil
	case opListBlocks:
		blocks, err := s.backend.ListBlocks(a.aru, a.lst)
		if err != nil {
			return fail(err)
		}
		ids := sess.ids[:0]
		for _, b := range blocks {
			ids = append(ids, uint64(b))
		}
		sess.ids = ids
		e := sess.encReset()
		encodeIDs(e, ids)
		return statusOK, e.b
	case opLists:
		lists, err := s.backend.Lists(a.aru)
		if err != nil {
			return fail(err)
		}
		ids := sess.ids[:0]
		for _, l := range lists {
			ids = append(ids, uint64(l))
		}
		sess.ids = ids
		e := sess.encReset()
		encodeIDs(e, ids)
		return statusOK, e.b
	case opStatBlock:
		bi, err := s.backend.StatBlock(a.aru, a.blk)
		if err != nil {
			return fail(err)
		}
		e := sess.encReset()
		encodeBlockInfo(e, bi)
		return statusOK, e.b
	case opBeginARU:
		if _, dup := sess.units[h]; dup {
			return fail(fmt.Errorf("%w: unit handle %d is already in use on this session", ErrProtocol, h))
		}
		aru, err := s.backend.BeginARU()
		sess.units[h] = unit{aru: aru, err: err}
		if err != nil {
			return fail(err)
		}
		return statusOK, nil
	case opEndARU:
		if err := sess.release(h, s.endARU(a)); err != nil {
			return fail(err)
		}
		return statusOK, nil
	case opAbortARU:
		if err := sess.release(h, s.backend.AbortARU(a.aru)); err != nil {
			return fail(err)
		}
		return statusOK, nil
	case opCommitDurable:
		// EndARU first so the handle is released the moment the unit is
		// committed; a flush failure afterwards leaves a committed but
		// not-yet-durable unit, which is what the error reports.
		if err := sess.release(h, s.endARU(a)); err != nil {
			return fail(err)
		}
		if err := s.flush(a); err != nil {
			return fail(fmt.Errorf("committed but not durable: %w", err))
		}
		return statusOK, nil
	case opSync:
		if err := s.flush(a); err != nil {
			return fail(err)
		}
		return statusOK, nil
	case opStats:
		e := sess.encReset()
		encodeStats(e, s.backend.Stats())
		return statusOK, e.b
	case opPing:
		return statusOK, nil
	case opHello:
		return fail(fmt.Errorf("%w: repeated HELLO", ErrProtocol))
	default:
		return fail(fmt.Errorf("%w: unknown opcode %d", ErrProtocol, op))
	}
}
