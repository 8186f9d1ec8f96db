package aru

import (
	"aru/internal/core"
	"aru/internal/ldnet"
)

// Interface is the client-side surface of a logical disk: every
// operation of the LD API plus the ARU bracket, implemented both by
// the in-process *Disk and by the network client returned by Dial.
// Programs written against Interface (see examples/kvstore) run
// unchanged on a local disk or against a remote aru-serve instance —
// the LD interface was designed as a disk-level service boundary, and
// this is that boundary as a Go type.
//
// Semantics are identical through both implementations — an ARU reads
// its own shadow state, simple reads see the committed state, EndARU
// is atomic but not durable.
//
// Read-snapshot semantics: every read through Interface observes one
// published epoch of the committed state — a single atomic cut, never
// a torn mix of two commits — but consecutive reads may land on
// different epochs as commits interleave. Callers needing several
// reads from ONE cut use the snapshot API, which is deliberately not
// part of Interface (a pinned epoch defers reclamation engine-side,
// the wrong default for a remote handle): the local *Disk and
// *ShardedDisk provide AcquireSnapshot, returning a pinned view that
// answers identically until Release.
//
// Two network-specific notes:
//
//   - ARUs begun through a network client are owned by its
//     connection. If the connection is lost mid-unit the server
//     aborts them, exactly as a crash would (shadow state discarded,
//     leaked allocations swept by the next consistency check), so a
//     surviving ARUID becomes invalid after a reconnect.
//   - Close releases the handle: the local Disk shuts the engine
//     down; a network client only closes its connection (the server
//     then aborts its open ARUs — the remote disk stays up).
type Interface interface {
	// Read copies block b, as seen from the state of aru (Simple =
	// committed state), into dst (exactly one block).
	Read(aru ARUID, b BlockID, dst []byte) error
	// Write replaces the contents of block b within the state of aru.
	Write(aru ARUID, b BlockID, data []byte) error
	// NewBlock allocates a block and inserts it into lst after pred
	// (NilBlock = head). The identifier is allocated in the committed
	// state even inside an ARU; the insertion is shadowed.
	NewBlock(aru ARUID, lst ListID, pred BlockID) (BlockID, error)
	// NewList allocates a new, empty list.
	NewList(aru ARUID) (ListID, error)
	// DeleteBlock removes block b (the paper's FreeBlock).
	DeleteBlock(aru ARUID, b BlockID) error
	// DeleteList removes list lst and every block on it.
	DeleteList(aru ARUID, lst ListID) error
	// MoveBlock moves block b to list lst after pred as one operation
	// of the issuing stream.
	MoveBlock(aru ARUID, b BlockID, lst ListID, pred BlockID) error
	// ListBlocks returns the members of lst, in order.
	ListBlocks(aru ARUID, lst ListID) ([]BlockID, error)
	// Lists returns the lists visible in the state of aru.
	Lists(aru ARUID) ([]ListID, error)
	// StatBlock returns the effective record of block b.
	StatBlock(aru ARUID, b BlockID) (BlockInfo, error)
	// BeginARU opens a new atomic recovery unit. A network client
	// returns at once with a handle it chose for the unit, without a
	// round trip; a begin the server refuses then fails the first call
	// that names the handle, with the same error (see
	// NetClient.BeginARU).
	BeginARU() (ARUID, error)
	// EndARU commits the unit — atomicity, not durability.
	EndARU(aru ARUID) error
	// AbortARU discards the unit's shadow state; its identifier
	// allocations are swept by the next consistency check. Returns
	// ErrAbortUnsupported on the sequential (VariantOld) build.
	AbortARU(aru ARUID) error
	// CommitDurable is EndARU plus Flush.
	CommitDurable(aru ARUID) error
	// Flush forces all committed state to stable storage (the paper's
	// Sync).
	Flush() error
	// Stats returns the disk's operation counters (a remote client
	// returns the zero Stats if the RPC fails; see NetClient.StatsRPC).
	Stats() Stats
	// BlockSize returns the disk's block size in bytes.
	BlockSize() int
	// Close releases the handle (see the interface comment for the
	// local/remote difference).
	Close() error
}

// Both implementations provide the full surface, checked at compile
// time.
var (
	_ Interface = (*Disk)(nil)
	_ Interface = (*NetClient)(nil)
)

// BlockInfo describes one block version, as returned by StatBlock.
type BlockInfo = core.BlockInfo

// NetClient is a remote logical disk speaking the ldnet wire protocol
// over one pipelined TCP connection; obtain one with Dial. See
// aru/internal/ldnet.Client for the async batch API (ReadAsync,
// WriteAsync) and reconnection behaviour.
type NetClient = ldnet.Client

// DialConfig configures Dial; see aru/internal/ldnet.ClientConfig.
type DialConfig = ldnet.ClientConfig

// NetServerOptions configures NewNetServer.
type NetServerOptions = ldnet.ServerOptions

// NetServer serves a Disk to remote clients; see
// aru/internal/ldnet.Server and cmd/aru-serve.
type NetServer = ldnet.Server

// Network-transport errors, re-exported for errors.Is tests. LD
// semantic errors (ErrNoSuchBlock, …) travel across the wire and
// match the same sentinels they do locally.
var (
	// ErrDisconnected reports a broken or unreachable server
	// connection.
	ErrDisconnected = ldnet.ErrDisconnected
	// ErrRPCTimeout reports a response that missed DialConfig.RPCTimeout.
	ErrRPCTimeout = ldnet.ErrTimeout
)

// Dial connects to an aru-serve (or any ldnet.Server) instance and
// returns a remote disk implementing Interface.
func Dial(addr string, cfg DialConfig) (*NetClient, error) {
	return ldnet.Dial(addr, cfg)
}

// NetBackend is what a network server serves: the LD surface as seen
// by aru/internal/ldnet. Both *Disk and *ShardedDisk implement it.
type NetBackend = ldnet.Backend

// NewNetServer wraps a local disk — single-engine or sharded — in an
// unstarted network server; call its Serve method with a net.Listener
// to accept clients.
func NewNetServer(d NetBackend, opts NetServerOptions) *NetServer {
	return ldnet.NewServer(d, opts)
}
