// Package ldnet serves a logical disk to remote clients over TCP,
// turning the LD interface into the disk-level *service* boundary the
// paper designed it to be: BeginARU/EndARU bracket logical-disk
// commands issued over the wire exactly as they bracket local calls,
// and a client that crashes or disconnects mid-ARU looks to the disk
// like an ARU interrupted by a failure — the server aborts it, its
// shadow state is discarded, and the allocations it leaked are freed
// by the consistency sweep (paper §3.3).
//
// # Wire protocol
//
// Every message is one length-prefixed frame:
//
//	| u32 length | payload (length bytes) |
//
// A request payload is | u64 reqID | u8 opcode | body |; a response
// payload is | u64 reqID | u8 status | body |. All integers are
// little-endian. Status 0 is success; any other value is an error
// code mapping back to one of the LD sentinel errors (the body then
// carries the server's error message), so errors.Is works across the
// process boundary.
//
// Requests are pipelined: a client may have any number of frames in
// flight, and responses are matched by reqID, not by order. The first
// frame on a connection must be a HELLO carrying the protocol magic
// and version; the server answers with the disk's block size, or, to a
// HELLO of another version, with an error naming both versions before
// it drops the connection.
//
// A unit is named on the wire by a handle its client chose: the
// begin_aru request carries it, every request of the unit names it,
// and the server maps it, per connection, to the engine's ARU. No
// request waits for the begin's reply, whose body is empty.
//
// Frames whose length prefix exceeds the negotiated maximum, that are
// truncated, or that carry an unparseable body are protocol errors:
// the decoder returns an error (never panics — see FuzzParseRequest)
// and the server drops the connection, which from the disk's point of
// view is just another client failure.
package ldnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"

	"aru/internal/core"
	"aru/internal/obs"
)

// Protocol constants.
const (
	// Magic opens every HELLO request ("ARUN").
	Magic uint32 = 0x4152554e
	// Version is the wire-protocol version; HELLO checks it. Version 2
	// made unit handles client-chosen (begin_aru carries one, and its
	// reply no longer returns the engine's id); a version-1 HELLO is
	// refused.
	Version uint16 = 2
	// DefaultMaxFrame caps the length prefix of a frame (requests and
	// responses). Large enough for a block write plus headers and for
	// list replies of half a million blocks.
	DefaultMaxFrame uint32 = 4 << 20
)

// Feature flags, negotiated at HELLO. A client that wants extensions
// appends a u32 flag word to its HELLO body; the server answers with
// the subset it accepts (also as a trailing u32), and only negotiated
// features may appear on the session's subsequent requests. A client
// that sends no flag word gets the base protocol and a flag-free HELLO
// response.
// Every server accepts the flag word; a client that offered it treats
// a failed handshake as a failed dial, never as a cue to drop it.
const (
	// FeatureTrace enables per-request trace context: the client may
	// set opTraceFlag on an opcode and prefix the body with
	// | u64 trace | u64 span | (DESIGN.md §13).
	FeatureTrace uint32 = 1 << 0
)

// opTraceFlag marks a traced request: the opcode's high bit, valid
// only on sessions that negotiated FeatureTrace (elsewhere it makes
// the opcode unknown). The real opcode is the low seven bits; the body
// then starts with | u64 trace | u64 span |.
const opTraceFlag uint8 = 0x80

// Opcodes of the LD service. The names follow the facade API
// (DeleteBlock is the paper's FreeBlock, Sync is Flush).
const (
	opHello uint8 = iota + 1
	opRead
	opWrite
	opNewBlock
	opNewList
	opFreeBlock
	opFreeList
	opMoveBlock
	opListBlocks
	opLists
	opStatBlock
	opBeginARU
	opEndARU
	opAbortARU
	opCommitDurable
	opSync
	opStats
	opPing

	numOps = int(opPing) + 1
)

// opNames names each opcode for metrics and errors.
var opNames = [numOps]string{
	opHello:         "hello",
	opRead:          "read",
	opWrite:         "write",
	opNewBlock:      "new_block",
	opNewList:       "new_list",
	opFreeBlock:     "free_block",
	opFreeList:      "free_list",
	opMoveBlock:     "move_block",
	opListBlocks:    "list_blocks",
	opLists:         "lists",
	opStatBlock:     "stat_block",
	opBeginARU:      "begin_aru",
	opEndARU:        "end_aru",
	opAbortARU:      "abort_aru",
	opCommitDurable: "commit_durable",
	opSync:          "sync",
	opStats:         "stats",
	opPing:          "ping",
}

func opName(op uint8) string {
	if int(op) < numOps && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", op)
}

// Status codes. statusOK is success; every other code maps to one of
// the LD sentinel errors so clients can errors.Is across the wire.
const (
	statusOK uint8 = iota
	codeGeneric
	codeNoSuchBlock
	codeNoSuchList
	codeNoSuchARU
	codeARUActive
	codeNotMember
	codeNoSpace
	codeAbortUnsupported
	codeClosed
	codeBadParam
)

// Errors of the network layer itself (transport, not LD semantics).
var (
	// ErrDisconnected reports that the connection to the server broke
	// (or could not be established) while a request was outstanding.
	ErrDisconnected = errors.New("ldnet: disconnected")
	// ErrTimeout reports that a response did not arrive within the
	// configured RPC timeout.
	ErrTimeout = errors.New("ldnet: RPC timeout")
	// ErrClientClosed reports use of a closed client.
	ErrClientClosed = errors.New("ldnet: client closed")
	// ErrProtocol reports a malformed frame or handshake.
	ErrProtocol = errors.New("ldnet: protocol error")
	// ErrRemote is the fallback unwrap target for server errors that
	// do not map to an LD sentinel.
	ErrRemote = errors.New("ldnet: remote error")
)

// codeFor maps a backend error to its wire code.
func codeFor(err error) uint8 {
	switch {
	case errors.Is(err, core.ErrNoSuchBlock):
		return codeNoSuchBlock
	case errors.Is(err, core.ErrNoSuchList):
		return codeNoSuchList
	case errors.Is(err, core.ErrNoSuchARU):
		return codeNoSuchARU
	case errors.Is(err, core.ErrARUActive):
		return codeARUActive
	case errors.Is(err, core.ErrNotMember):
		return codeNotMember
	case errors.Is(err, core.ErrNoSpace):
		return codeNoSpace
	case errors.Is(err, core.ErrAbortUnsupported):
		return codeAbortUnsupported
	case errors.Is(err, core.ErrClosed):
		return codeClosed
	case errors.Is(err, core.ErrBadParam):
		return codeBadParam
	default:
		return codeGeneric
	}
}

// sentinelFor maps a wire code back to the LD sentinel it encodes.
func sentinelFor(code uint8) error {
	switch code {
	case codeNoSuchBlock:
		return core.ErrNoSuchBlock
	case codeNoSuchList:
		return core.ErrNoSuchList
	case codeNoSuchARU:
		return core.ErrNoSuchARU
	case codeARUActive:
		return core.ErrARUActive
	case codeNotMember:
		return core.ErrNotMember
	case codeNoSpace:
		return core.ErrNoSpace
	case codeAbortUnsupported:
		return core.ErrAbortUnsupported
	case codeClosed:
		return core.ErrClosed
	case codeBadParam:
		return core.ErrBadParam
	default:
		return ErrRemote
	}
}

// wireError is a server-side error reconstructed on the client: its
// message is the server's, and it unwraps to the matching LD sentinel
// (or ErrRemote) so errors.Is keeps working across the wire.
type wireError struct {
	code uint8
	msg  string
}

func (e *wireError) Error() string {
	if e.msg != "" {
		return e.msg
	}
	return sentinelFor(e.code).Error()
}

func (e *wireError) Unwrap() error { return sentinelFor(e.code) }

// errFor rebuilds the client-side error for a non-OK status.
func errFor(code uint8, msg string) error {
	return &wireError{code: code, msg: msg}
}

// ---- Frame I/O -------------------------------------------------------

var errFrameTooBig = fmt.Errorf("%w: frame exceeds maximum size", ErrProtocol)

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte, maxFrame uint32) error {
	if uint32(len(payload)) > maxFrame {
		return errFrameTooBig
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// writeResponse writes one response frame — | u32 len | u64 reqID |
// u8 status | body | — without assembling it first: header and body
// go straight into w (a buffered writer), so a block-sized body is
// copied once, not twice. pre is caller-owned header scratch: a local
// array would escape through the io.Writer parameter and cost one
// heap allocation per response, so the connection loop supplies one
// that lives as long as the connection. (The client's request side
// encodes its header into Client.reqHdr for the same reason.)
func writeResponse(w io.Writer, reqID uint64, status uint8, body []byte, maxFrame uint32, pre *[13]byte) error {
	n := 9 + len(body)
	if uint32(n) > maxFrame {
		return errFrameTooBig
	}
	binary.LittleEndian.PutUint32(pre[0:4], uint32(n))
	binary.LittleEndian.PutUint64(pre[4:12], reqID)
	pre[12] = status
	if _, err := w.Write(pre[:]); err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one length-prefixed frame, allocating a fresh
// buffer (frames may outlive the read loop: write payloads are handed
// to the engine, responses to waiting calls).
func readFrame(r io.Reader, maxFrame uint32) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, errFrameTooBig
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("%w: truncated frame: %v", ErrProtocol, err)
	}
	return buf, nil
}

// readFrameReuse is readFrame into a caller-owned scratch buffer,
// growing it only when a frame exceeds its capacity. The returned
// slice aliases *scratch and is valid until the next call — fit for
// the server's request loop, where each request is fully dispatched
// before the next read.
func readFrameReuse(r io.Reader, maxFrame uint32, scratch *[]byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, errFrameTooBig
	}
	if uint32(cap(*scratch)) < n {
		*scratch = make([]byte, n)
	}
	buf := (*scratch)[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("%w: truncated frame: %v", ErrProtocol, err)
	}
	return buf, nil
}

// ---- Encoding helpers ------------------------------------------------

// enc is an append-only little-endian encoder.
type enc struct{ b []byte }

func newEnc(capacity int) *enc { return &enc{b: make([]byte, 0, capacity)} }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) bytes(p []byte) {
	e.b = append(e.b, p...)
}

// dec is a bounds-checked little-endian decoder: out-of-range reads
// set bad instead of panicking, so arbitrary input is safe to parse.
type dec struct {
	b   []byte
	bad bool
}

func (d *dec) u8() uint8 {
	if d.bad || len(d.b) < 1 {
		d.bad = true
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u16() uint16 {
	if d.bad || len(d.b) < 2 {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b)
	d.b = d.b[2:]
	return v
}

func (d *dec) u32() uint32 {
	if d.bad || len(d.b) < 4 {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) u64() uint64 {
	if d.bad || len(d.b) < 8 {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// rest consumes and returns all remaining bytes.
func (d *dec) rest() []byte {
	if d.bad {
		return nil
	}
	v := d.b
	d.b = nil
	return v
}

// ok reports whether decoding succeeded AND consumed the whole input
// (trailing garbage is a protocol error).
func (d *dec) ok() bool { return !d.bad && len(d.b) == 0 }

// ---- Request parsing -------------------------------------------------

// reqArgs holds the decoded arguments of one request; which fields
// are meaningful depends on the opcode.
type reqArgs struct {
	aru   core.ARUID // the unit handle named (0 is Simple), or the one begin_aru opens
	blk   core.BlockID
	pred  core.BlockID
	lst   core.ListID
	data  []byte
	magic uint32
	ver   uint16

	// hasFlags/flags: the optional HELLO feature word (sent by clients
	// that trace). trace/span: the request's trace context, present when
	// the opcode carried opTraceFlag on a FeatureTrace session.
	hasFlags bool
	flags    uint32
	trace    uint64
	span     uint64
}

// parseRequest decodes one request frame. maxData caps the write
// payload (the server passes its block size); allowTrace is whether
// the session negotiated FeatureTrace — without it an opTraceFlag
// opcode is unknown. It never panics on malformed input;
// FuzzParseRequest enforces that. appendRequest is its encoder.
func parseRequest(frame []byte, maxData int, allowTrace bool) (reqID uint64, op uint8, a reqArgs, err error) {
	d := &dec{b: frame}
	reqID = d.u64()
	op = d.u8()
	if d.bad {
		return 0, 0, a, fmt.Errorf("%w: short request header (%d bytes)", ErrProtocol, len(frame))
	}
	if op&opTraceFlag != 0 {
		if !allowTrace {
			return reqID, op, a, fmt.Errorf("%w: unknown opcode %d", ErrProtocol, op)
		}
		op &^= opTraceFlag
		a.trace = d.u64()
		a.span = d.u64()
		if d.bad {
			return reqID, op, a, fmt.Errorf("%w: short trace context on %s request", ErrProtocol, opName(op))
		}
	}
	switch op {
	case opHello:
		a.magic = d.u32()
		a.ver = d.u16()
		if !d.bad && len(d.b) > 0 {
			// Optional feature word, then reserved space for future
			// extensions (ignored so a newer client still negotiates).
			a.flags = d.u32()
			a.hasFlags = true
			d.rest()
		}
	case opRead, opStatBlock:
		a.aru = core.ARUID(d.u64())
		a.blk = core.BlockID(d.u64())
	case opWrite:
		a.aru = core.ARUID(d.u64())
		a.blk = core.BlockID(d.u64())
		a.data = d.rest()
		if len(a.data) > maxData {
			return reqID, op, a, fmt.Errorf("%w: write payload of %d bytes exceeds block size %d", ErrProtocol, len(a.data), maxData)
		}
	case opNewBlock:
		a.aru = core.ARUID(d.u64())
		a.lst = core.ListID(d.u64())
		a.pred = core.BlockID(d.u64())
	case opMoveBlock:
		a.aru = core.ARUID(d.u64())
		a.blk = core.BlockID(d.u64())
		a.lst = core.ListID(d.u64())
		a.pred = core.BlockID(d.u64())
	case opNewList, opLists, opEndARU, opAbortARU, opCommitDurable:
		a.aru = core.ARUID(d.u64())
	case opFreeBlock:
		a.aru = core.ARUID(d.u64())
		a.blk = core.BlockID(d.u64())
	case opFreeList, opListBlocks:
		a.aru = core.ARUID(d.u64())
		a.lst = core.ListID(d.u64())
	case opBeginARU:
		// The client's handle for the new unit; 0 is Simple, which
		// names no unit.
		a.aru = core.ARUID(d.u64())
		if !d.bad && a.aru == 0 {
			return reqID, op, a, fmt.Errorf("%w: begin_aru names handle 0 (Simple)", ErrProtocol)
		}
	case opSync, opStats, opPing:
		// no body
	default:
		return reqID, op, a, fmt.Errorf("%w: unknown opcode %d", ErrProtocol, op)
	}
	if !d.ok() {
		return reqID, op, a, fmt.Errorf("%w: malformed %s request body", ErrProtocol, opName(op))
	}
	return reqID, op, a, nil
}

// appendRequest appends one request's frame header to dst — | u32
// length | u64 reqID | u8 opcode | u64 trace | u64 span | hd's u64
// arguments | — for a frame whose payloadLen-byte payload follows it.
// The trace context, and opTraceFlag on the opcode, are sent only when
// sc carries a trace.
func appendRequest(dst []byte, reqID uint64, op uint8, sc obs.SpanContext, hd reqHead, payloadLen int) []byte {
	n := 9 + 8*hd.n + payloadLen
	if sc.Traced() {
		n += 16
		op |= opTraceFlag
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint64(dst, reqID)
	dst = append(dst, op)
	if sc.Traced() {
		dst = binary.LittleEndian.AppendUint64(dst, sc.Trace)
		dst = binary.LittleEndian.AppendUint64(dst, sc.Span)
	}
	for _, v := range hd.v[:hd.n] {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// parseResponse splits one response frame into its header and body.
// It never panics on malformed input; FuzzParseResponse enforces that.
func parseResponse(frame []byte) (reqID uint64, status uint8, body []byte, err error) {
	d := &dec{b: frame}
	reqID = d.u64()
	status = d.u8()
	body = d.rest()
	if d.bad {
		return 0, 0, nil, fmt.Errorf("%w: short response header (%d bytes)", ErrProtocol, len(frame))
	}
	return reqID, status, body, nil
}

// ---- Stats encoding --------------------------------------------------

// statsFields is the number of int64 counters in core.Stats; it is
// part of the wire encoding, so client and server of the same build
// always agree, and a field-count mismatch across builds is detected
// instead of silently mis-assigning counters.
var statsFields = reflect.TypeOf(core.Stats{}).NumField()

// encodeStats appends a Stats snapshot: u16 field count, then each
// exported int64 field in declaration order.
func encodeStats(e *enc, st core.Stats) {
	rv := reflect.ValueOf(st)
	e.u16(uint16(statsFields))
	for i := 0; i < statsFields; i++ {
		e.u64(uint64(rv.Field(i).Int()))
	}
}

// decodeStats parses what encodeStats wrote.
func decodeStats(body []byte) (core.Stats, error) {
	d := &dec{b: body}
	n := int(d.u16())
	if d.bad || n != statsFields {
		return core.Stats{}, fmt.Errorf("%w: stats encoding has %d fields, want %d", ErrProtocol, n, statsFields)
	}
	var st core.Stats
	rv := reflect.ValueOf(&st).Elem()
	for i := 0; i < statsFields; i++ {
		rv.Field(i).SetInt(int64(d.u64()))
	}
	if !d.ok() {
		return core.Stats{}, fmt.Errorf("%w: malformed stats body", ErrProtocol)
	}
	return st, nil
}

// ---- BlockInfo encoding ----------------------------------------------

func encodeBlockInfo(e *enc, bi core.BlockInfo) {
	e.u64(uint64(bi.ID))
	e.u64(uint64(bi.List))
	e.u64(uint64(bi.Succ))
	if bi.HasData {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.u64(bi.TS)
}

func decodeBlockInfo(body []byte) (core.BlockInfo, error) {
	d := &dec{b: body}
	bi := core.BlockInfo{
		ID:   core.BlockID(d.u64()),
		List: core.ListID(d.u64()),
		Succ: core.BlockID(d.u64()),
	}
	bi.HasData = d.u8() != 0
	bi.TS = d.u64()
	if !d.ok() {
		return core.BlockInfo{}, fmt.Errorf("%w: malformed block-info body", ErrProtocol)
	}
	return bi, nil
}

// ---- ID-list encoding ------------------------------------------------

func encodeIDs(e *enc, ids []uint64) {
	e.u32(uint32(len(ids)))
	for _, id := range ids {
		e.u64(id)
	}
}

func decodeIDs(body []byte) ([]uint64, error) {
	d := &dec{b: body}
	n := int(d.u32())
	if d.bad || n > len(body)/8 {
		return nil, fmt.Errorf("%w: malformed id-list body", ErrProtocol)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.u64()
	}
	if !d.ok() {
		return nil, fmt.Errorf("%w: malformed id-list body", ErrProtocol)
	}
	return out, nil
}
