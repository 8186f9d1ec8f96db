package ldnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"aru/internal/core"
	"aru/internal/obs"
)

// ClientConfig configures Dial; the zero value selects defaults.
type ClientConfig struct {
	// DialTimeout bounds connection establishment, including the
	// protocol handshake (default 5s).
	DialTimeout time.Duration
	// RPCTimeout bounds each call from send to response (default 30s;
	// negative disables the timeout).
	RPCTimeout time.Duration
	// ReadRetries is how many times an idempotent read (Read,
	// ListBlocks, Lists, StatBlock, Stats, Flush, Ping) is retried
	// after a disconnect, reconnecting with exponential backoff
	// (default 3; negative disables retries). Mutating operations are
	// never retried: the client cannot know whether the server
	// applied them before the connection broke.
	ReadRetries int
	// RetryBackoff is the initial reconnect backoff, doubling per
	// attempt (default 25ms).
	RetryBackoff time.Duration
	// MaxFrame caps response frame sizes (default DefaultMaxFrame).
	MaxFrame uint32
	// Tracer, when non-nil with spans enabled, records a client-rpc
	// span per request and offers FeatureTrace at HELLO so the server
	// continues the trace: its server-op and engine spans are parented
	// on this client's RPC spans (DESIGN.md §13). A server without a
	// tracer grants no features, and spans stay client-local.
	Tracer *obs.Tracer
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.DialTimeout == 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 30 * time.Second
	}
	if c.ReadRetries == 0 {
		c.ReadRetries = 3
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.MaxFrame == 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	return c
}

// Client is a remote logical disk: it implements the same interface
// as the in-process facade (aru.Interface) by speaking the ldnet wire
// protocol over one TCP connection.
//
// Calls are pipelined: any number of goroutines may issue requests
// concurrently on one Client, each request carries a unique id, and
// responses complete out of band as they arrive — a slow Sync does
// not stall the reads queued behind it on the client side. The async
// variants (ReadAsync, WriteAsync) expose the pipeline directly:
// issue a batch, then wait, paying one round trip for the whole
// batch instead of one per call.
//
// If the connection breaks, every in-flight call fails with
// ErrDisconnected. The next call redials automatically; idempotent
// reads additionally retry with exponential backoff (see
// ClientConfig.ReadRetries). Server-side, the disconnect aborted
// every ARU this client had open, so retried operations naming such
// an ARU correctly fail with ErrNoSuchARU.
type Client struct {
	addr string
	cfg  ClientConfig

	mu        sync.Mutex
	conn      net.Conn
	bw        *bufio.Writer
	flushing  bool // a flusher goroutine is scheduled for c.bw
	blockSize int
	nextID    uint64
	pending   map[uint64]*Call
	closed    bool

	// nextUnit is the last unit handle BeginARU issued. It is never
	// reset, so across a redial a stale handle names nothing on the new
	// session instead of a unit begun there.
	nextUnit uint64

	// features holds the flags the current connection negotiated.
	features uint32

	// reqHdr is the request-header scratch writeLocked encodes into
	// (under c.mu): frame length, request id, opcode, optional trace
	// context and up to four u64 arguments. Keeping it on the client
	// means the hot send path allocates no per-request buffers.
	reqHdr [61]byte

	// frames is the response-frame free list (guarded by frameMu, not
	// c.mu, so returning a frame never contends with senders). The
	// read loop takes frames from it; body-less responses go straight
	// back, and responses with a payload are returned by Call.finish
	// once the issuing method has decoded the body.
	frameMu sync.Mutex
	frames  [][]byte
}

const (
	// maxPooledFrames caps the client's response-frame free list.
	maxPooledFrames = 32
	// maxPooledFrameSize keeps oversized frames (huge list replies)
	// out of the pool; block-sized read responses stay well under it.
	maxPooledFrameSize = 64 << 10
)

// getFrame pops a response buffer of length n from the free list,
// allocating if the list is empty or its top is too small (dropping
// the small one, so the pool ratchets up to the connection's working
// frame size instead of thrashing between sizes).
func (c *Client) getFrame(n int) []byte {
	c.frameMu.Lock()
	if last := len(c.frames) - 1; last >= 0 {
		f := c.frames[last]
		c.frames[last] = nil
		c.frames = c.frames[:last]
		c.frameMu.Unlock()
		if cap(f) >= n {
			return f[:n]
		}
		return make([]byte, n)
	}
	c.frameMu.Unlock()
	return make([]byte, n)
}

// putFrame returns a response buffer to the free list.
func (c *Client) putFrame(f []byte) {
	if cap(f) == 0 || cap(f) > maxPooledFrameSize {
		return
	}
	c.frameMu.Lock()
	if len(c.frames) < maxPooledFrames {
		c.frames = append(c.frames, f[:0])
	}
	c.frameMu.Unlock()
}

// Dial connects to an ldnet server and performs the protocol
// handshake.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	c := &Client{
		addr:    addr,
		cfg:     cfg.withDefaults(),
		pending: make(map[uint64]*Call),
	}
	c.mu.Lock()
	err := c.redialLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// BlockSize returns the server disk's block size, learned during the
// handshake.
func (c *Client) BlockSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blockSize
}

// Addr returns the server address this client dials.
func (c *Client) Addr() string { return c.addr }

// Close closes the connection and fails all in-flight calls. Requests
// still buffered and not yet flushed — a BeginARU stays buffered until
// the next request carries it out — are dropped, exactly as a crash
// would drop them. The server aborts every ARU this client still had
// open — closing a client mid-ARU is indistinguishable from crashing.
// It never closes the remote disk.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.breakLocked(ErrClientClosed)
	return nil
}

// redialLocked establishes the connection and runs the handshake
// synchronously (the read loop starts only afterwards): dial, HELLO —
// extended with FeatureTrace when tracing is configured — parse the
// response and install the connection. A failed attempt is an error;
// the next call dials again. Caller holds c.mu.
func (c *Client) redialLocked() error {
	if c.closed {
		return ErrClientClosed
	}
	var flags uint32
	if c.cfg.Tracer.SpanEnabled() {
		flags = FeatureTrace
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("%w: dial %s: %v", ErrDisconnected, c.addr, err)
	}
	deadline := time.Now().Add(c.cfg.DialTimeout)
	_ = conn.SetDeadline(deadline)
	bw := bufio.NewWriterSize(conn, 64<<10)
	br := bufio.NewReaderSize(conn, 64<<10)

	e := newEnc(24)
	e.u64(0) // handshake request id
	e.u8(opHello)
	e.u32(Magic)
	e.u16(Version)
	if flags != 0 {
		e.u32(flags)
	}
	if err := writeFrame(bw, e.b, c.cfg.MaxFrame); err == nil {
		err = bw.Flush()
	} else {
		conn.Close()
		return fmt.Errorf("%w: handshake send: %v", ErrDisconnected, err)
	}
	frame, err := readFrame(br, c.cfg.MaxFrame)
	if err != nil {
		conn.Close()
		return fmt.Errorf("%w: handshake: %v", ErrProtocol, err)
	}
	_, status, body, err := parseResponse(frame)
	if err != nil {
		conn.Close()
		return err
	}
	if status != statusOK {
		conn.Close()
		return fmt.Errorf("%w: handshake rejected: %s", ErrProtocol, string(body))
	}
	d := &dec{b: body}
	ver := d.u16()
	blockSize := int(d.u32())
	d.u32() // server max frame (informational)
	var features uint32
	if flags != 0 && len(d.b) >= 4 {
		features = d.u32()
	}
	d.rest() // reserved for future response extensions
	if d.bad || ver != Version || blockSize <= 0 {
		conn.Close()
		return fmt.Errorf("%w: bad handshake response", ErrProtocol)
	}
	if c.blockSize != 0 && c.blockSize != blockSize {
		conn.Close()
		return fmt.Errorf("%w: server block size changed from %d to %d across reconnect",
			ErrProtocol, c.blockSize, blockSize)
	}
	_ = conn.SetDeadline(time.Time{})
	c.conn = conn
	c.bw = bw
	c.blockSize = blockSize
	c.features = features & flags
	go c.readLoop(conn, br)
	return nil
}

// readLoop receives responses for one connection generation and
// completes the matching calls, in whatever order the server answers.
// Frames come from the client's free list; a frame whose body a call
// needs is owned by that call until Call.finish returns it, every
// other frame goes straight back to the pool.
func (c *Client) readLoop(conn net.Conn, br *bufio.Reader) {
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			c.connBroken(conn, err)
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n > c.cfg.MaxFrame {
			c.connBroken(conn, errFrameTooBig)
			return
		}
		frame := c.getFrame(int(n))
		if _, err := io.ReadFull(br, frame); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			c.connBroken(conn, fmt.Errorf("%w: truncated frame: %v", ErrProtocol, err))
			return
		}
		reqID, status, body, err := parseResponse(frame)
		if err != nil {
			c.connBroken(conn, err)
			return
		}
		c.mu.Lock()
		call, ok := c.pending[reqID]
		if ok {
			delete(c.pending, reqID)
		}
		c.mu.Unlock()
		switch {
		case !ok:
			// Nobody waits for it: a begin's reply (the server keeps its
			// outcome, see BeginARU), or the late reply of a call that
			// timed out.
			c.putFrame(frame)
		case status != statusOK:
			err := errFor(status, string(body))
			c.putFrame(frame)
			call.complete(nil, err)
		case len(body) == 0:
			c.putFrame(frame)
			call.complete(nil, nil)
		default:
			call.frame = frame
			call.complete(body, nil)
		}
	}
}

// connBroken tears down one connection generation: in-flight calls
// fail with ErrDisconnected and the next request triggers a redial.
func (c *Client) connBroken(conn net.Conn, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != conn {
		return // closed, or a newer generation already took over
	}
	c.breakLocked(fmt.Errorf("%w: %v", ErrDisconnected, cause))
}

// breakLocked closes the current connection and fails every in-flight
// call with err; the next request redials. Caller holds c.mu.
func (c *Client) breakLocked(err error) {
	if c.conn != nil {
		c.conn.Close()
	}
	c.conn = nil
	c.bw = nil
	c.failPendingLocked(err)
}

func (c *Client) failPendingLocked(err error) {
	for id, call := range c.pending {
		delete(c.pending, id)
		call.complete(nil, err)
	}
}

// Call is one in-flight request. Wait (or Done + Err) collects the
// outcome; the typed accessors of the issuing method decode the body.
type Call struct {
	c    *Client
	id   uint64
	op   uint8
	done chan struct{}
	body []byte
	err  error

	// The client-rpc span (zero with tracing off) ends when the call
	// completes; its context travels with the request on FeatureTrace
	// sessions so the server continues the chain. aru is the first
	// request argument, kept for the span.
	span obs.Active
	aru  uint64

	// frame is the pooled response buffer body aliases, if any;
	// finish (idempotent, guarded by released) returns it.
	frame    []byte
	released atomic.Bool
}

func (call *Call) complete(body []byte, err error) {
	call.body = body
	call.err = err
	var failed uint64
	if err != nil {
		failed = 1
	}
	call.span.End(call.aru, uint64(call.op), failed)
	close(call.done)
}

// finish releases the call's response buffer back to the client's
// frame pool. The body is invalid afterwards. Idempotent: only the
// first caller returns the frame.
func (call *Call) finish() {
	if call.frame != nil && call.released.CompareAndSwap(false, true) {
		call.c.putFrame(call.frame)
	}
}

// Done is closed when the response (or failure) arrived.
func (call *Call) Done() <-chan struct{} { return call.done }

// Wait blocks until the call completes or the RPC timeout expires,
// and returns its error. It also releases the call's response buffer
// for reuse — the typed methods decode the body before the buffer is
// let go.
func (call *Call) Wait() error {
	_, err := call.wait()
	call.finish()
	return err
}

// timerPool recycles RPC-timeout timers: a pipelined burst would
// otherwise allocate one timer (and its channel) per call.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	if !t.Stop() {
		// Already fired: drain the tick if it is still pending so a
		// reused timer cannot deliver a stale expiry.
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

func (call *Call) wait() ([]byte, error) {
	select {
	case <-call.done: // fast path: already complete, no timer needed
		return call.body, call.err
	default:
	}
	timeout := call.c.cfg.RPCTimeout
	if timeout <= 0 {
		<-call.done
		return call.body, call.err
	}
	timer := getTimer(timeout)
	select {
	case <-call.done:
		putTimer(timer)
		return call.body, call.err
	case <-timer.C:
		putTimer(timer)
	}
	// Abandon the call: remove it from pending so a late response is
	// dropped, unless the read loop won the race.
	c := call.c
	c.mu.Lock()
	_, stillPending := c.pending[call.id]
	if stillPending {
		delete(c.pending, call.id)
	}
	c.mu.Unlock()
	if !stillPending {
		<-call.done // response arrived while we were deciding
		return call.body, call.err
	}
	call.complete(nil, fmt.Errorf("%w: %s after %v", ErrTimeout, opName(call.op), timeout))
	return nil, call.err
}

// reqHead carries up to four u64 request arguments by value: building
// a request head costs no allocation (the old enc-based builders
// allocated a slice per request).
type reqHead struct {
	n int
	v [4]uint64
}

func head1(a uint64) reqHead          { return reqHead{n: 1, v: [4]uint64{a}} }
func head2(a, b uint64) reqHead       { return reqHead{n: 2, v: [4]uint64{a, b}} }
func head3(a, b, c uint64) reqHead    { return reqHead{n: 3, v: [4]uint64{a, b, c}} }
func head4(a, b, c, d uint64) reqHead { return reqHead{n: 4, v: [4]uint64{a, b, c, d}} }

// flushMode says how send gets a request's frame out of the
// connection buffer when no flusher goroutine is scheduled yet (one
// that is carries the frame out with everything else buffered).
type flushMode bool

const (
	// flushAsync schedules the coalescing flusher goroutine, so a
	// pipelined burst leaves in one socket write.
	flushAsync flushMode = false
	// flushInline flushes on the caller's goroutine: a synchronous
	// caller blocks on the reply next anyway, and a goroutine spawn
	// plus a scheduler hop would cost more than the flush.
	flushInline flushMode = true
)

// send registers and transmits one request. The returned call may
// already be failed (send errors complete it immediately).
func (c *Client) send(op uint8, hd reqHead, payload []byte, mode flushMode) *Call {
	call := &Call{c: c, op: op, done: make(chan struct{})}
	call.span = c.cfg.Tracer.Start(obs.SpanClientRPC, obs.SpanContext{})
	if hd.n > 0 {
		call.aru = hd.v[0] // first argument is the ARU on every op that has one
	}
	c.mu.Lock()
	err := c.writeLocked(call, op, hd, payload, call.span.Ctx())
	if err == nil && !c.flushing {
		if mode == flushInline {
			c.flushLocked()
		} else {
			c.flushing = true
			go c.flush()
		}
	}
	c.mu.Unlock()
	if err != nil {
		call.complete(nil, err)
	}
	return call
}

// writeLocked encodes one request frame into the connection buffer,
// redialing first if the connection is down. The header goes into
// c.reqHdr and the payload straight after it (no intermediate frame
// copy), so payload may be a caller-owned block buffer: it is consumed
// before writeLocked returns. A non-nil call is registered under the
// frame's request id so that the reply completes it (the read loop
// cannot look it up before c.mu is released); a nil call's reply is
// dropped unread. sc travels only on a session that negotiated
// FeatureTrace. Caller holds c.mu.
func (c *Client) writeLocked(call *Call, op uint8, hd reqHead, payload []byte, sc obs.SpanContext) error {
	if c.closed {
		return ErrClientClosed
	}
	if op == opWrite && len(payload) != c.blockSize {
		return fmt.Errorf("%w: Write buffer is %d bytes, block size is %d",
			core.ErrBadParam, len(payload), c.blockSize)
	}
	if c.conn == nil {
		if err := c.redialLocked(); err != nil {
			return err
		}
	}
	if c.features&FeatureTrace == 0 {
		sc = obs.SpanContext{}
	}
	c.nextID++
	hdr := appendRequest(c.reqHdr[:0], c.nextID, op, sc, hd, len(payload))
	var err error
	if uint32(len(hdr)-4+len(payload)) > c.cfg.MaxFrame {
		err = errFrameTooBig
	} else if _, err = c.bw.Write(hdr); err == nil && len(payload) > 0 {
		_, err = c.bw.Write(payload)
	}
	if err != nil {
		err = fmt.Errorf("%w: send: %v", ErrDisconnected, err)
		c.breakLocked(err)
		return err
	}
	if call != nil {
		call.id = c.nextID
		c.pending[call.id] = call
	}
	return nil
}

// flush is the coalescing flusher: everything buffered by the time it
// runs leaves in one socket write. At most one is scheduled at a time
// (see c.flushing).
func (c *Client) flush() {
	c.mu.Lock()
	c.flushing = false
	c.flushLocked()
	c.mu.Unlock()
}

// flushLocked pushes the connection buffer to the socket; a failed
// flush is a broken connection. Caller holds c.mu.
func (c *Client) flushLocked() {
	if c.bw == nil {
		return // the connection broke; its calls have already failed
	}
	if err := c.bw.Flush(); err != nil {
		c.breakLocked(fmt.Errorf("%w: flush: %v", ErrDisconnected, err))
	}
}

// rpc performs one synchronous round trip and returns the completed
// call. The caller reads call.err, decodes call.body (which may alias
// a pooled frame) and must then release the call with finish.
func (c *Client) rpc(op uint8, hd reqHead) *Call {
	call := c.send(op, hd, nil, flushInline)
	call.wait()
	return call
}

// rpcRetry is rpc plus the idempotent-read retry policy: on
// disconnect, reconnect with exponential backoff and reissue.
func (c *Client) rpcRetry(op uint8, hd reqHead) *Call {
	backoff := c.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		call := c.rpc(op, hd)
		if call.err == nil || !isTransient(call.err) || attempt >= c.cfg.ReadRetries {
			return call
		}
		call.finish()
		time.Sleep(backoff)
		backoff *= 2
	}
}

// isTransient reports whether an error is a broken-transport error
// that a reconnect may cure (never a semantic LD error or a timeout).
func isTransient(err error) bool {
	return errors.Is(err, ErrDisconnected)
}

// ---- The LD interface over the wire ----------------------------------

// Read copies block b, as seen from the state of aru, into dst. It is
// idempotent and retried across reconnects.
func (c *Client) Read(aru core.ARUID, b core.BlockID, dst []byte) error {
	call := c.rpcRetry(opRead, head2(uint64(aru), uint64(b)))
	if call.err != nil {
		call.finish()
		return call.err
	}
	if len(call.body) != len(dst) {
		n := len(call.body)
		call.finish()
		return fmt.Errorf("%w: read returned %d bytes, want %d", ErrProtocol, n, len(dst))
	}
	copy(dst, call.body)
	call.finish()
	return nil
}

// ReadAsync issues a pipelined Read and returns immediately; Wait
// collects the result (and releases the payload buffer — use Read
// for contents, ReadAsync to drive the pipeline). Prefer Read unless
// batching.
func (c *Client) ReadAsync(aru core.ARUID, b core.BlockID) *Call {
	return c.send(opRead, head2(uint64(aru), uint64(b)), nil, flushAsync)
}

// Write replaces the contents of block b within the state of aru.
func (c *Client) Write(aru core.ARUID, b core.BlockID, data []byte) error {
	return c.send(opWrite, head2(uint64(aru), uint64(b)), data, flushInline).Wait()
}

// WriteAsync issues a pipelined Write and returns immediately; Wait
// collects the result. A batch of WriteAsync calls followed by one
// round of Waits costs one round trip, not one per write.
func (c *Client) WriteAsync(aru core.ARUID, b core.BlockID, data []byte) *Call {
	return c.send(opWrite, head2(uint64(aru), uint64(b)), data, flushAsync)
}

// NewBlock allocates a block and inserts it into lst after pred.
func (c *Client) NewBlock(aru core.ARUID, lst core.ListID, pred core.BlockID) (core.BlockID, error) {
	call := c.rpc(opNewBlock, head3(uint64(aru), uint64(lst), uint64(pred)))
	if call.err != nil {
		call.finish()
		return 0, call.err
	}
	id, err := decodeU64(call.body)
	call.finish()
	return core.BlockID(id), err
}

// NewList allocates a new, empty list.
func (c *Client) NewList(aru core.ARUID) (core.ListID, error) {
	call := c.rpc(opNewList, head1(uint64(aru)))
	if call.err != nil {
		call.finish()
		return 0, call.err
	}
	id, err := decodeU64(call.body)
	call.finish()
	return core.ListID(id), err
}

// DeleteBlock removes block b within the state of aru.
func (c *Client) DeleteBlock(aru core.ARUID, b core.BlockID) error {
	call := c.rpc(opFreeBlock, head2(uint64(aru), uint64(b)))
	call.finish()
	return call.err
}

// DeleteList removes list lst and its blocks within the state of aru.
func (c *Client) DeleteList(aru core.ARUID, lst core.ListID) error {
	call := c.rpc(opFreeList, head2(uint64(aru), uint64(lst)))
	call.finish()
	return call.err
}

// MoveBlock moves block b to list lst after pred, atomically within
// the issuing stream.
func (c *Client) MoveBlock(aru core.ARUID, b core.BlockID, lst core.ListID, pred core.BlockID) error {
	call := c.rpc(opMoveBlock, head4(uint64(aru), uint64(b), uint64(lst), uint64(pred)))
	call.finish()
	return call.err
}

// ListBlocks returns the members of lst in order, as seen from the
// state of aru. Idempotent: retried across reconnects.
func (c *Client) ListBlocks(aru core.ARUID, lst core.ListID) ([]core.BlockID, error) {
	call := c.rpcRetry(opListBlocks, head2(uint64(aru), uint64(lst)))
	if call.err != nil {
		call.finish()
		return nil, call.err
	}
	ids, err := decodeIDs(call.body)
	call.finish()
	if err != nil {
		return nil, err
	}
	out := make([]core.BlockID, len(ids))
	for i, id := range ids {
		out[i] = core.BlockID(id)
	}
	return out, nil
}

// Lists returns the lists visible in the state of aru. Idempotent:
// retried across reconnects.
func (c *Client) Lists(aru core.ARUID) ([]core.ListID, error) {
	call := c.rpcRetry(opLists, head1(uint64(aru)))
	if call.err != nil {
		call.finish()
		return nil, call.err
	}
	ids, err := decodeIDs(call.body)
	call.finish()
	if err != nil {
		return nil, err
	}
	out := make([]core.ListID, len(ids))
	for i, id := range ids {
		out[i] = core.ListID(id)
	}
	return out, nil
}

// StatBlock returns the effective record of block b in the state of
// aru. Idempotent: retried across reconnects.
func (c *Client) StatBlock(aru core.ARUID, b core.BlockID) (core.BlockInfo, error) {
	call := c.rpcRetry(opStatBlock, head2(uint64(aru), uint64(b)))
	if call.err != nil {
		call.finish()
		return core.BlockInfo{}, call.err
	}
	bi, err := decodeBlockInfo(call.body)
	call.finish()
	return bi, err
}

// BeginARU opens a new atomic recovery unit on the server and returns
// its handle without waiting for the server. The handle is a name this
// client chose, which the server maps to the engine's ARU. The begin
// request is buffered ahead of every request that names the handle
// and leaves in the same socket write as the next request, so a unit
// costs no round trip of its own. The unit is owned by this
// connection: if the connection breaks before EndARU, the server
// aborts it, and the handle names nothing after a reconnect.
//
// A begin the server refuses (ErrARUActive on a VariantOld disk with a
// unit open, ErrClosed) fails the first request that names the handle
// with that error; EndARU and AbortARU report it and forget the
// handle. BeginARU itself fails only on what the client knows at once:
// a closed client, a failed redial or a send error.
func (c *Client) BeginARU() (core.ARUID, error) {
	span := c.cfg.Tracer.Start(obs.SpanClientRPC, obs.SpanContext{})
	c.mu.Lock()
	c.nextUnit++
	h := c.nextUnit
	err := c.writeLocked(nil, opBeginARU, head1(h), nil, span.Ctx())
	c.mu.Unlock()
	var failed uint64
	if err != nil {
		failed = 1
	}
	span.End(h, uint64(opBeginARU), failed)
	if err != nil {
		return 0, err
	}
	return core.ARUID(h), nil
}

// EndARU commits the unit (atomicity, not durability — call Flush or
// use CommitDurable).
func (c *Client) EndARU(aru core.ARUID) error {
	call := c.rpc(opEndARU, head1(uint64(aru)))
	call.finish()
	return call.err
}

// AbortARU discards the unit's shadow state.
func (c *Client) AbortARU(aru core.ARUID) error {
	call := c.rpc(opAbortARU, head1(uint64(aru)))
	call.finish()
	return call.err
}

// CommitDurable ends the ARU and flushes in one round trip.
func (c *Client) CommitDurable(aru core.ARUID) error {
	call := c.rpc(opCommitDurable, head1(uint64(aru)))
	call.finish()
	return call.err
}

// Flush forces all committed state to stable storage. Idempotent:
// retried across reconnects.
func (c *Client) Flush() error {
	call := c.rpcRetry(opSync, reqHead{})
	call.finish()
	return call.err
}

// Stats returns the server disk's counters; a failed RPC returns the
// zero Stats (use StatsRPC to observe the error).
func (c *Client) Stats() core.Stats {
	st, _ := c.StatsRPC()
	return st
}

// StatsRPC returns the server disk's counters, or the RPC error.
func (c *Client) StatsRPC() (core.Stats, error) {
	call := c.rpcRetry(opStats, reqHead{})
	if call.err != nil {
		call.finish()
		return core.Stats{}, call.err
	}
	st, err := decodeStats(call.body)
	call.finish()
	return st, err
}

// Ping round-trips an empty request — a health check and an RTT
// probe. Idempotent: retried across reconnects.
func (c *Client) Ping() error {
	call := c.rpcRetry(opPing, reqHead{})
	call.finish()
	return call.err
}

func decodeU64(body []byte) (uint64, error) {
	d := &dec{b: body}
	v := d.u64()
	if !d.ok() {
		return 0, fmt.Errorf("%w: malformed id body", ErrProtocol)
	}
	return v, nil
}
