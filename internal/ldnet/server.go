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

// Backend is the disk-side surface the server exposes over the wire.
// *core.LLD implements it; so does *Client, which makes the server
// composable (a proxy is a server whose backend is a client).
type Backend interface {
	Read(aru core.ARUID, b core.BlockID, dst []byte) error
	Write(aru core.ARUID, b core.BlockID, data []byte) error
	NewBlock(aru core.ARUID, lst core.ListID, pred core.BlockID) (core.BlockID, error)
	NewList(aru core.ARUID) (core.ListID, error)
	DeleteBlock(aru core.ARUID, b core.BlockID) error
	DeleteList(aru core.ARUID, lst core.ListID) error
	MoveBlock(aru core.ARUID, b core.BlockID, lst core.ListID, pred core.BlockID) error
	ListBlocks(aru core.ARUID, lst core.ListID) ([]core.BlockID, error)
	Lists(aru core.ARUID) ([]core.ListID, error)
	StatBlock(aru core.ARUID, b core.BlockID) (core.BlockInfo, error)
	BeginARU() (core.ARUID, error)
	EndARU(aru core.ARUID) error
	AbortARU(aru core.ARUID) error
	Flush() error
	Stats() core.Stats
	BlockSize() int
}

var _ Backend = (*core.LLD)(nil)

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
// it — no other session may operate on or end them — and when the
// session ends for any reason (clean close, crash, network partition)
// every ARU it still owns is aborted, extending the paper's crash
// semantics to client failure: the shadow state is discarded and the
// blocks the ARU allocated are swept by the next consistency check.
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

// session is the per-connection state: the set of ARUs this client
// owns. Owned ARUs are the only ones the session may name in
// requests; passing Simple (0) is always allowed.
type session struct {
	owned map[core.ARUID]struct{}

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

// errNotOwned is what another session's (or a forged) ARU id maps to:
// from this session's point of view the ARU does not exist, which
// both enforces ownership and leaks nothing about other sessions.
func errNotOwned(aru core.ARUID) error {
	return fmt.Errorf("%w: ARU %d is not owned by this session", core.ErrNoSuchARU, aru)
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
	if err != nil || op != opHello || args.magic != Magic || args.ver != Version {
		m.protoErrors.Add(1)
		s.logf("ldnet: %s: bad handshake (op=%d err=%v)", conn.RemoteAddr(), op, err)
		return
	}
	// Feature negotiation: grant the intersection of what the client
	// asked for and what this server supports. A flag-free HELLO (every
	// v1 client) gets the flag-free v1 response.
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

	sess := &session{owned: make(map[core.ARUID]struct{})}
	// Disconnect ≡ abort: whatever ends this connection, every ARU the
	// session still owns is aborted so its shadow state vanishes —
	// the same outcome a local crash of the client would have had.
	defer func() {
		n := 0
		for aru := range sess.owned {
			if err := s.backend.AbortARU(aru); err == nil {
				n++
			} else {
				s.logf("ldnet: %s: aborting ARU %d on disconnect: %v", conn.RemoteAddr(), aru, err)
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

// checkARU enforces session ownership for a request naming an ARU.
func (sess *session) checkARU(aru core.ARUID) error {
	if aru == seg.SimpleARU {
		return nil
	}
	if _, ok := sess.owned[aru]; !ok {
		return errNotOwned(aru)
	}
	return nil
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
// encodes the response body.
func (s *Server) dispatch(sess *session, op uint8, a reqArgs) (status uint8, body []byte) {
	fail := func(err error) (uint8, []byte) {
		return codeFor(err), []byte(err.Error())
	}
	switch op {
	case opRead:
		if err := sess.checkARU(a.aru); err != nil {
			return fail(err)
		}
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
		if err := sess.checkARU(a.aru); err != nil {
			return fail(err)
		}
		if err := s.backend.Write(a.aru, a.blk, a.data); err != nil {
			return fail(err)
		}
		return statusOK, nil
	case opNewBlock:
		if err := sess.checkARU(a.aru); err != nil {
			return fail(err)
		}
		id, err := s.backend.NewBlock(a.aru, a.lst, a.pred)
		if err != nil {
			return fail(err)
		}
		e := sess.encReset()
		e.u64(uint64(id))
		return statusOK, e.b
	case opNewList:
		if err := sess.checkARU(a.aru); err != nil {
			return fail(err)
		}
		id, err := s.backend.NewList(a.aru)
		if err != nil {
			return fail(err)
		}
		e := sess.encReset()
		e.u64(uint64(id))
		return statusOK, e.b
	case opFreeBlock:
		if err := sess.checkARU(a.aru); err != nil {
			return fail(err)
		}
		if err := s.backend.DeleteBlock(a.aru, a.blk); err != nil {
			return fail(err)
		}
		return statusOK, nil
	case opFreeList:
		if err := sess.checkARU(a.aru); err != nil {
			return fail(err)
		}
		if err := s.backend.DeleteList(a.aru, a.lst); err != nil {
			return fail(err)
		}
		return statusOK, nil
	case opMoveBlock:
		if err := sess.checkARU(a.aru); err != nil {
			return fail(err)
		}
		if err := s.backend.MoveBlock(a.aru, a.blk, a.lst, a.pred); err != nil {
			return fail(err)
		}
		return statusOK, nil
	case opListBlocks:
		if err := sess.checkARU(a.aru); err != nil {
			return fail(err)
		}
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
		if err := sess.checkARU(a.aru); err != nil {
			return fail(err)
		}
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
		if err := sess.checkARU(a.aru); err != nil {
			return fail(err)
		}
		bi, err := s.backend.StatBlock(a.aru, a.blk)
		if err != nil {
			return fail(err)
		}
		e := sess.encReset()
		encodeBlockInfo(e, bi)
		return statusOK, e.b
	case opBeginARU:
		id, err := s.backend.BeginARU()
		if err != nil {
			return fail(err)
		}
		sess.owned[id] = struct{}{}
		e := sess.encReset()
		e.u64(uint64(id))
		return statusOK, e.b
	case opEndARU:
		if err := sess.checkARU(a.aru); err != nil {
			return fail(err)
		}
		if err := s.endARU(a); err != nil {
			if errors.Is(err, core.ErrNoSuchARU) {
				delete(sess.owned, a.aru)
			}
			return fail(err)
		}
		delete(sess.owned, a.aru)
		return statusOK, nil
	case opAbortARU:
		if err := sess.checkARU(a.aru); err != nil {
			return fail(err)
		}
		if err := s.backend.AbortARU(a.aru); err != nil {
			if errors.Is(err, core.ErrNoSuchARU) {
				delete(sess.owned, a.aru)
			}
			return fail(err)
		}
		delete(sess.owned, a.aru)
		return statusOK, nil
	case opCommitDurable:
		if err := sess.checkARU(a.aru); err != nil {
			return fail(err)
		}
		// EndARU first so ownership is released the moment the unit is
		// committed; a flush failure afterwards leaves a committed but
		// not-yet-durable unit, which is what the error reports.
		if err := s.endARU(a); err != nil {
			if errors.Is(err, core.ErrNoSuchARU) {
				delete(sess.owned, a.aru)
			}
			return fail(err)
		}
		delete(sess.owned, a.aru)
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
