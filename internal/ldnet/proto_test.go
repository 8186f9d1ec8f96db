package ldnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"aru/internal/core"
	"aru/internal/obs"
)

// ---- Pure decoder robustness ----------------------------------------

func TestParseRequestRobustness(t *testing.T) {
	// A valid read request, used as the base for mutations.
	e := newEnc(32)
	e.u64(7)
	e.u8(opRead)
	e.u64(0)
	e.u64(42)
	valid := e.b

	if id, op, a, err := parseRequest(valid, 4096, false); err != nil || id != 7 || op != opRead || a.blk != 42 {
		t.Fatalf("valid request failed to parse: id=%d op=%d err=%v", id, op, err)
	}

	cases := []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"short header", valid[:5]},
		{"truncated body", valid[:12]},
		{"trailing garbage", append(append([]byte{}, valid...), 0xFF)},
		{"unknown opcode", func() []byte {
			f := append([]byte{}, valid...)
			f[8] = 200
			return f
		}()},
		{"opcode zero", func() []byte {
			f := append([]byte{}, valid...)
			f[8] = 0
			return f
		}()},
		{"bodyless op with body", func() []byte {
			e := newEnc(16)
			e.u64(1)
			e.u8(opPing)
			e.u64(99)
			return e.b
		}()},
	}
	for _, tc := range cases {
		if _, _, _, err := parseRequest(tc.frame, 4096, false); err == nil {
			t.Errorf("%s: parseRequest accepted malformed input", tc.name)
		} else if !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: error %v does not wrap ErrProtocol", tc.name, err)
		}
	}

	// An oversized write payload is rejected by maxData.
	e = newEnc(64)
	e.u64(1)
	e.u8(opWrite)
	e.u64(0)
	e.u64(1)
	e.bytes(make([]byte, 33))
	if _, _, _, err := parseRequest(e.b, 32, false); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized write payload: got %v, want ErrProtocol", err)
	}
}

func TestParseRequestTraceContext(t *testing.T) {
	// A traced read: 0x80 | opRead, body prefixed with trace + span.
	e := newEnc(64)
	e.u64(7)
	e.u8(opRead | opTraceFlag)
	e.u64(0xABCD) // trace
	e.u64(0xEF01) // span
	e.u64(3)      // aru
	e.u64(42)     // blk
	traced := e.b

	// On a FeatureTrace session the context is stripped and decoded.
	id, op, a, err := parseRequest(traced, 4096, true)
	if err != nil || id != 7 || op != opRead {
		t.Fatalf("traced request: id=%d op=%d err=%v", id, op, err)
	}
	if a.trace != 0xABCD || a.span != 0xEF01 || a.aru != 3 || a.blk != 42 {
		t.Fatalf("traced request args: %+v", a)
	}

	// Without the negotiated feature the same frame is an unknown
	// opcode — exactly what a v1 server would say.
	if _, _, _, err := parseRequest(traced, 4096, false); !errors.Is(err, ErrProtocol) {
		t.Fatalf("un-negotiated traced request: got %v, want ErrProtocol", err)
	}

	// A traced header cut off mid-context is malformed, not a panic.
	if _, _, _, err := parseRequest(traced[:17], 4096, true); !errors.Is(err, ErrProtocol) {
		t.Fatalf("short trace context: got %v, want ErrProtocol", err)
	}
}

func TestParseRequestHelloFlags(t *testing.T) {
	base := func() *enc {
		e := newEnc(32)
		e.u64(1)
		e.u8(opHello)
		e.u32(Magic)
		e.u16(Version)
		return e
	}

	// Flag-free HELLO.
	if _, _, a, err := parseRequest(base().b, 4096, false); err != nil || a.hasFlags {
		t.Fatalf("flag-free HELLO: hasFlags=%v err=%v", a.hasFlags, err)
	}

	// Extended HELLO: trailing feature word.
	e := base()
	e.u32(FeatureTrace)
	if _, _, a, err := parseRequest(e.b, 4096, false); err != nil || !a.hasFlags || a.flags != FeatureTrace {
		t.Fatalf("extended HELLO: args=%+v err=%v", a, err)
	}

	// Reserved bytes after the feature word are ignored (a future
	// client's longer HELLO still negotiates on this build).
	e.u64(0xFFFF)
	if _, _, a, err := parseRequest(e.b, 4096, false); err != nil || a.flags != FeatureTrace {
		t.Fatalf("HELLO with reserved tail: args=%+v err=%v", a, err)
	}

	// A short flag word (1–3 trailing bytes) is malformed.
	e = base()
	e.u8(1)
	if _, _, _, err := parseRequest(e.b, 4096, false); !errors.Is(err, ErrProtocol) {
		t.Fatalf("short HELLO flags: got %v, want ErrProtocol", err)
	}
}

// TestRequestRoundTrip: what the client's encoder writes, parseRequest
// reads back — a begin's handle and a write's payload, plain and
// traced. A begin of handle 0 (Simple) or of no handle is malformed.
func TestRequestRoundTrip(t *testing.T) {
	payload := []byte("one block")
	for _, sc := range []obs.SpanContext{{}, {Trace: 0xABCD, Span: 0xEF01}} {
		frame := appendRequest(nil, 9, opBeginARU, sc, head1(42), 0)
		if n := binary.LittleEndian.Uint32(frame); int(n) != len(frame)-4 {
			t.Fatalf("begin length prefix %d, frame is %d bytes", n, len(frame)-4)
		}
		id, op, a, err := parseRequest(frame[4:], 4096, sc.Traced())
		if err != nil || id != 9 || op != opBeginARU || a.aru != 42 || a.trace != sc.Trace || a.span != sc.Span {
			t.Fatalf("begin (trace %x): id=%d op=%d args=%+v err=%v", sc.Trace, id, op, a, err)
		}

		frame = append(appendRequest(nil, 10, opWrite, sc, head2(42, 7), len(payload)), payload...)
		if n := binary.LittleEndian.Uint32(frame); int(n) != len(frame)-4 {
			t.Fatalf("write length prefix %d, frame is %d bytes", n, len(frame)-4)
		}
		id, op, a, err = parseRequest(frame[4:], 4096, sc.Traced())
		if err != nil || id != 10 || op != opWrite || a.aru != 42 || a.blk != 7 || !bytes.Equal(a.data, payload) || a.trace != sc.Trace {
			t.Fatalf("write (trace %x): id=%d op=%d args=%+v err=%v", sc.Trace, id, op, a, err)
		}
	}
	for _, hd := range []reqHead{head1(0), {}} {
		frame := appendRequest(nil, 9, opBeginARU, obs.SpanContext{}, hd, 0)
		if _, _, _, err := parseRequest(frame[4:], 4096, false); !errors.Is(err, ErrProtocol) {
			t.Fatalf("begin with head %+v: got %v, want ErrProtocol", hd, err)
		}
	}
}

func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := writeFrame(&buf, payload, 64); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	got, err := readFrame(&buf, 64)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip: %q %v", got, err)
	}

	// Oversized length prefix: rejected before allocating.
	var huge bytes.Buffer
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<31)
	huge.Write(hdr[:])
	if _, err := readFrame(&huge, DefaultMaxFrame); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized prefix: got %v, want ErrProtocol", err)
	}

	// Truncated frame: header promises more than the stream holds.
	var short bytes.Buffer
	binary.LittleEndian.PutUint32(hdr[:], 100)
	short.Write(hdr[:])
	short.WriteString("only a little")
	if _, err := readFrame(&short, DefaultMaxFrame); !errors.Is(err, ErrProtocol) {
		t.Fatalf("truncated frame: got %v, want ErrProtocol", err)
	}

	// Oversized payload is refused on the write side too.
	if err := writeFrame(io.Discard, make([]byte, 65), 64); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized write: got %v, want ErrProtocol", err)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	var st core.Stats
	st.Reads = 7
	st.Writes = 9
	st.ARUsAborted = 3
	st.LeakedBlocksFreed = 11
	e := newEnc(2 + 8*statsFields)
	encodeStats(e, st)
	got, err := decodeStats(e.b)
	if err != nil {
		t.Fatalf("decodeStats: %v", err)
	}
	if got != st {
		t.Fatalf("stats round trip: got %+v, want %+v", got, st)
	}
	// Wrong field count is detected, not mis-assigned.
	bad := append([]byte{}, e.b...)
	binary.LittleEndian.PutUint16(bad[0:], uint16(statsFields+1))
	if _, err := decodeStats(bad); !errors.Is(err, ErrProtocol) {
		t.Fatalf("field-count mismatch: got %v, want ErrProtocol", err)
	}
	if _, err := decodeStats(e.b[:5]); !errors.Is(err, ErrProtocol) {
		t.Fatalf("truncated stats: got %v, want ErrProtocol", err)
	}
}

func TestBlockInfoAndIDsRoundTrip(t *testing.T) {
	bi := core.BlockInfo{ID: 5, List: 2, Succ: 9, HasData: true, TS: 77}
	e := newEnc(33)
	encodeBlockInfo(e, bi)
	got, err := decodeBlockInfo(e.b)
	if err != nil || got != bi {
		t.Fatalf("block-info round trip: %+v %v", got, err)
	}
	if _, err := decodeBlockInfo(e.b[:10]); !errors.Is(err, ErrProtocol) {
		t.Fatalf("truncated block info: got %v, want ErrProtocol", err)
	}

	ids := []uint64{1, 5, 1 << 40}
	e = newEnc(32)
	encodeIDs(e, ids)
	back, err := decodeIDs(e.b)
	if err != nil || len(back) != 3 || back[2] != 1<<40 {
		t.Fatalf("id-list round trip: %v %v", back, err)
	}
	// A count that promises more ids than the body holds must not
	// allocate or over-read.
	var lie bytes.Buffer
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<30)
	lie.Write(hdr[:])
	lie.Write(make([]byte, 16))
	if _, err := decodeIDs(lie.Bytes()); !errors.Is(err, ErrProtocol) {
		t.Fatalf("lying id count: got %v, want ErrProtocol", err)
	}
}

func TestErrorMapping(t *testing.T) {
	// The codes are wire format: none may change its value.
	codes := []uint8{statusOK, codeGeneric, codeNoSuchBlock, codeNoSuchList, codeNoSuchARU,
		codeARUActive, codeNotMember, codeNoSpace, codeAbortUnsupported, codeClosed, codeBadParam}
	for want, code := range codes {
		if int(code) != want {
			t.Errorf("wire code %d moved to %d", want, code)
		}
	}
	if len(codeSentinels) != len(codes) {
		t.Errorf("%d codes carry sentinels, %d codes exist", len(codeSentinels), len(codes))
	}
	for code, want := range codeSentinels {
		if want == nil {
			continue
		}
		if got := codeFor(fmt.Errorf("wrapped: %w", want)); got != uint8(code) {
			t.Errorf("%v maps to code %d, want %d", want, got, code)
		}
		rebuilt := errFor(uint8(code), "server says: "+want.Error())
		if !errors.Is(rebuilt, want) {
			t.Errorf("round-tripped %v does not errors.Is its sentinel", want)
		}
	}
	if codeFor(errors.New("boom")) != codeGeneric || codeSentinels[statusOK] != nil || codeSentinels[codeGeneric] != nil {
		t.Fatalf("an error with no sentinel, or statusOK or codeGeneric, carries a sentinel")
	}
	if !errors.Is(errFor(codeGeneric, "boom"), ErrRemote) {
		t.Fatalf("generic code does not unwrap to ErrRemote")
	}
	if got := errFor(codeNoSuchBlock, "").Error(); got == "" {
		t.Fatalf("empty-message wire error has empty Error()")
	}
}

// ---- Raw-socket robustness against a live server --------------------

// rawDial opens a raw connection and completes the HELLO handshake.
func rawDial(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	e := newEnc(16)
	e.u64(1)
	e.u8(opHello)
	e.u32(Magic)
	e.u16(Version)
	if err := writeFrame(conn, e.b, DefaultMaxFrame); err != nil {
		t.Fatalf("hello: %v", err)
	}
	br := bufio.NewReader(conn)
	if _, err := readFrame(br, DefaultMaxFrame); err != nil {
		t.Fatalf("hello response: %v", err)
	}
	return conn, br
}

// expectDrop asserts the server closes the connection (rather than
// answering or hanging).
func expectDrop(t *testing.T, conn net.Conn, br *bufio.Reader, what string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFrame(br, DefaultMaxFrame); err == nil {
		t.Fatalf("%s: server answered instead of dropping the connection", what)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("%s: server neither answered nor dropped within 5s", what)
	}
}

func TestServerDropsBadHandshake(t *testing.T) {
	backend, _ := newBackend(t, 16)
	srv, addr := startServer(t, backend)

	// Wrong magic.
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	e := newEnc(16)
	e.u64(1)
	e.u8(opHello)
	e.u32(0xDEADBEEF)
	e.u16(Version)
	if err := writeFrame(conn, e.b, DefaultMaxFrame); err != nil {
		t.Fatalf("write: %v", err)
	}
	expectDrop(t, conn, bufio.NewReader(conn), "bad magic")

	// Garbage instead of a frame: an absurd length prefix.
	conn2, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn2.Close()
	if _, err := conn2.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}); err != nil {
		t.Fatalf("write: %v", err)
	}
	expectDrop(t, conn2, bufio.NewReader(conn2), "oversized prefix")

	if protoErrors(srv) < 2 {
		t.Fatalf("protocol errors not counted: %d", protoErrors(srv))
	}
}

// TestServerRefusesVersion1: a version-1 HELLO is answered with an
// error naming both versions, and then the connection drops.
func TestServerRefusesVersion1(t *testing.T) {
	backend, _ := newBackend(t, 16)
	srv, addr := startServer(t, backend)
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	e := newEnc(16)
	e.u64(1)
	e.u8(opHello)
	e.u32(Magic)
	e.u16(1)
	if err := writeFrame(conn, e.b, DefaultMaxFrame); err != nil {
		t.Fatalf("write: %v", err)
	}
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, err := readFrame(br, DefaultMaxFrame)
	if err != nil {
		t.Fatalf("server dropped a version-1 HELLO without saying why: %v", err)
	}
	_, status, body, err := parseResponse(frame)
	if err != nil || status == statusOK {
		t.Fatalf("version-1 HELLO answered status=%d err=%v, want an error", status, err)
	}
	msg := string(body)
	if !strings.Contains(msg, "version 1") || !strings.Contains(msg, fmt.Sprintf("version %d", Version)) {
		t.Fatalf("refusal %q does not name both versions", msg)
	}
	expectDrop(t, conn, br, "version-1 HELLO")
	if n := protoErrors(srv); n != 1 {
		t.Fatalf("protocol errors = %d, want 1", n)
	}
}

func TestServerAnswersUnknownOpcode(t *testing.T) {
	backend, _ := newBackend(t, 16)
	_, addr := startServer(t, backend)
	conn, br := rawDial(t, addr)

	// An unknown opcode in a well-framed request gets an error
	// response; the connection stays usable.
	e := newEnc(16)
	e.u64(42)
	e.u8(250)
	if err := writeFrame(conn, e.b, DefaultMaxFrame); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, err := readFrame(br, DefaultMaxFrame)
	if err != nil {
		t.Fatalf("server dropped instead of answering unknown opcode: %v", err)
	}
	reqID, status, _, err := parseResponse(frame)
	if err != nil || reqID != 42 || status == statusOK {
		t.Fatalf("unknown opcode response: id=%d status=%d err=%v", reqID, status, err)
	}

	// Prove the connection survived: a ping still works.
	e = newEnc(16)
	e.u64(43)
	e.u8(opPing)
	if err := writeFrame(conn, e.b, DefaultMaxFrame); err != nil {
		t.Fatalf("ping write: %v", err)
	}
	frame, err = readFrame(br, DefaultMaxFrame)
	if err != nil {
		t.Fatalf("ping after unknown opcode: %v", err)
	}
	if reqID, status, _, _ := parseResponse(frame); reqID != 43 || status != statusOK {
		t.Fatalf("ping response: id=%d status=%d", reqID, status)
	}
}

func TestServerDropsTruncatedFrame(t *testing.T) {
	backend, _ := newBackend(t, 16)
	_, addr := startServer(t, backend)
	conn, br := rawDial(t, addr)

	// Promise 50 bytes, send 10, then half-close: the server must
	// treat it as a dead connection, not hang or crash.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 50)
	conn.Write(hdr[:])
	conn.Write(make([]byte, 10))
	type closeWriter interface{ CloseWrite() error }
	if cw, ok := conn.(closeWriter); ok {
		cw.CloseWrite()
	} else {
		conn.Close()
	}
	expectDrop(t, conn, br, "truncated frame")
}

// ---- Fuzzing ---------------------------------------------------------

// FuzzParseRequest: arbitrary request frames must produce a value or
// an error, never a panic or an over-read — with trace context
// negotiated or not.
func FuzzParseRequest(f *testing.F) {
	// Seed with one valid frame per opcode shape, plain and traced.
	for op := uint8(1); int(op) < numOps; op++ {
		e := newEnc(64)
		e.u64(uint64(op))
		e.u8(op)
		e.u64(1)
		e.u64(2)
		e.u64(3)
		e.u64(4)
		f.Add(e.b)

		e = newEnc(80)
		e.u64(uint64(op))
		e.u8(op | opTraceFlag)
		e.u64(0x1111) // trace
		e.u64(0x2222) // span
		e.u64(1)
		e.u64(2)
		e.u64(3)
		e.u64(4)
		f.Add(e.b)
	}
	// Extended HELLO (feature word, and with a reserved tail) and a
	// trace header cut off mid-context.
	e := newEnc(32)
	e.u64(1)
	e.u8(opHello)
	e.u32(Magic)
	e.u16(Version)
	e.u32(FeatureTrace)
	f.Add(e.b)
	e.u64(0xFFFF)
	f.Add(e.b)
	e = newEnc(32)
	e.u64(1)
	e.u8(opSync | opTraceFlag)
	e.u32(0xAB)
	f.Add(e.b)
	f.Add(appendRequest(nil, 1, opBeginARU, obs.SpanContext{}, head1(7), 0)[4:])
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, allowTrace := range []bool{false, true} {
			reqID, op, a, err := parseRequest(frame, 4096, allowTrace)
			if err == nil && len(a.data) > 4096 {
				t.Fatalf("accepted oversized payload (%d bytes) for op %d req %d", len(a.data), op, reqID)
			}
			if err == nil && op == opBeginARU && a.aru == 0 {
				t.Fatalf("accepted a begin of handle 0 (Simple), req %d", reqID)
			}
		}
	})
}

// FuzzParseResponse: arbitrary response frames and bodies must decode
// cleanly or error, never panic.
func FuzzParseResponse(f *testing.F) {
	e := newEnc(32)
	e.u64(1)
	e.u8(statusOK)
	e.bytes([]byte("body"))
	f.Add(e.b)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		_, status, body, err := parseResponse(frame)
		if err != nil {
			return
		}
		// Exercise the body decoders the client would run on it.
		_, _ = decodeStats(body)
		_, _ = decodeBlockInfo(body)
		_, _ = decodeIDs(body)
		_, _ = decodeU64(body)
		if status != statusOK {
			_ = errFor(status, string(body)).Error()
		}
	})
}

// FuzzFrameIO: arbitrary byte streams through readFrame must error or
// yield a bounded frame, never panic or allocate unboundedly.
func FuzzFrameIO(f *testing.F) {
	var ok bytes.Buffer
	writeFrame(&ok, []byte("abc"), 64)
	f.Add(ok.Bytes())
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		for {
			frame, err := readFrame(r, 1<<16)
			if err != nil {
				return
			}
			if len(frame) > 1<<16 {
				t.Fatalf("readFrame returned %d bytes past the cap", len(frame))
			}
		}
	})
}

// protoErrors reads net_proto_errors, the malformed frames and
// handshakes that made srv drop a connection, from its counters.
func protoErrors(srv *Server) int64 {
	for _, c := range srv.Metrics().Counters() {
		if c.Name == "net_proto_errors" {
			return c.Value
		}
	}
	return -1
}
