package aru

import (
	"aru/internal/core"
	"aru/internal/ldnet"
)

// Interface is the client-side surface of a logical disk: every
// operation of the LD API plus the ARU bracket, implemented both by
// the in-process *Disk and by the network client returned by Dial.
// Programs written against Interface (see ExampleInterface) run
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
//
// The operations and their per-method contracts are declared once, on
// aru/internal/ldnet.Backend.
type Interface = ldnet.Backend

// Every disk of the module provides the full surface, checked at
// compile time: local programs and the network server use them
// interchangeably.
var (
	_ Interface = (*Disk)(nil)
	_ Interface = (*ShardedDisk)(nil)
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

// NetBackend is what a network server serves: the same LD surface as
// Interface. Both *Disk and *ShardedDisk implement it.
type NetBackend = Interface

// NewNetServer wraps a local disk — single-engine or sharded — in an
// unstarted network server; call its Serve method with a net.Listener
// to accept clients.
func NewNetServer(d NetBackend, opts NetServerOptions) *NetServer {
	return ldnet.NewServer(d, opts)
}
