// Package runtime defines the backend-agnostic seams every protocol in
// this repository is written against: a Clock (virtual or wall-clock
// time, timers), a Transport (node lifecycle, one-way messages, RPCs,
// latency and loss semantics, delivery stats) and a Runtime bundling
// the two with run control.
//
// Transport is two interfaces. Net is what a deployed peer can do:
// Clock, Join, Fail, Send, Request, Stats. Observer is what only the
// experimenter knows: Alive, Locality, Latency — ground truth about
// other nodes. Protocol code — the drivers under internal/flower,
// internal/baseline, internal/squirrel and internal/koorde, the chord
// and gossip substrates — holds a Net; the harness, metrics and traces
// read the Observer. Transport, their union, is what a backend provides
// (see its doc for why it keeps that name). Three backends implement
// it:
//
//   - internal/simrt ("sim") adapts the deterministic discrete-event
//     engine (internal/sim) and the simulated message layer
//     (internal/simnet); it is the reference implementation, bit-for-bit
//     reproducible.
//   - internal/rtnet ("realtime") runs the identical protocol code in
//     real time: wall-clock timers serialized onto a single run loop
//     (internal/wallclock), with the in-process loopback transport
//     injecting latency sampled from the same topology model.
//   - internal/socknet ("socket") is realtime with the population split
//     over cooperating OS processes: the same run loop and the same
//     simnet network, plus a wire — a leg toward another process's node
//     is serialized by a Codec ("binary" by default) and batched over
//     localhost or real TCP, bootstrap state mirrored over the Bus.
//
// All times are int64 milliseconds; on the sim backend they are
// simulated milliseconds, on the realtime and socket backends wall-clock
// milliseconds since the run started. The constants Millisecond,
// Second, Minute and Hour mirror the time package at that resolution.
package runtime

import "errors"

// Time unit constants, in milliseconds.
const (
	Millisecond int64 = 1
	Second            = 1000 * Millisecond
	Minute            = 60 * Second
	Hour              = 60 * Minute
)

// NodeID names a node for the lifetime of a run. IDs are never reused:
// a peer that re-joins after failing gets a fresh NodeID, which mirrors
// the paper's model where a returning peer is a new participant.
type NodeID int32

// None is the zero-ish sentinel for "no node".
const None NodeID = -1

// Handler is implemented by every protocol node. HandleMessage receives
// one-way messages; RPC requests arrive through HandleRequest.
type Handler interface {
	// HandleMessage processes a one-way message. from is the sender at
	// the time of sending (it may already be dead on delivery).
	HandleMessage(from NodeID, msg any)
	// HandleRequest processes an RPC and returns the response or an
	// application error. A non-nil error is delivered to the caller as
	// a failed call (same as a timeout, but immediate on response
	// arrival); protocols use it for "not my role" style rejections.
	HandleRequest(from NodeID, req any) (any, error)
}

// Errors surfaced to Request callers.
var (
	// ErrTimeout: no response within the deadline (dead target, dead
	// requester-side delivery, or dropped en route).
	ErrTimeout = errors.New("runtime: request timed out")
	// ErrNoSuchNode: the target NodeID was never registered.
	ErrNoSuchNode = errors.New("runtime: no such node")
)

// Sizer lets a message report its approximate wire size in bytes for
// overhead accounting. Messages that do not implement it are counted
// with DefaultMessageBytes.
type Sizer interface {
	WireBytes() int
}

// DefaultMessageBytes approximates a small control message (headers +
// a few identifiers).
const DefaultMessageBytes = 64

// TransportStats accumulates traffic counters for a run.
type TransportStats struct {
	MessagesSent      uint64
	MessagesDelivered uint64
	MessagesDropped   uint64 // target dead or unregistered at delivery
	BytesSent         uint64
	RequestsIssued    uint64
	RequestsTimedOut  uint64
}

// Timer is the handle for a one-shot scheduled event. It can be
// cancelled before it fires; cancelling an already-fired or
// already-cancelled timer is a no-op.
//
// The handle belongs to whoever scheduled it, and the record behind it
// to the clock: a handle that is kept stays valid for ever — the clock
// never reuses its record, and a stale Cancel is a no-op — while a
// handle given back with Release lets the clock hand the record to a
// later Schedule. That is the rule Net.Send states for messages,
// for timers: after Release the caller must not touch the handle again.
type Timer interface {
	// Cancel prevents the timer's function from running. It reports
	// whether the cancellation had any effect.
	Cancel() bool
	// Release tells the clock the caller will not use this handle again.
	// The timer still fires unless it was cancelled; once it has fired or
	// been cancelled, its clock may reuse the record for the next
	// Schedule. A caller that drops the handle at once releases it in the
	// statement that schedules it; one that stores it releases it where
	// it clears the field (DropTimer does both). Any call on a released
	// handle, a second Release included, is a bug: it may reach the
	// record's next tenant.
	Release()
}

// DropTimer is how the owner of a stored handle lets go of it: cancel
// the timer if it is still pending, give the handle back to its clock,
// and clear the field so that nothing can touch it again. A nil *t — no
// timer armed, or dropped already — is left alone.
func DropTimer(t *Timer) {
	if *t != nil {
		(*t).Cancel()
		(*t).Release()
		*t = nil
	}
}

// Ticker is the handle for a periodic event, firing until cancelled.
type Ticker interface {
	// Cancel stops all future firings.
	Cancel()
}

// Clock is the time seam: protocols read the current time and schedule
// one-shot and periodic callbacks through it, never caring whether time
// is simulated or real. All callbacks of one run are serialized — no
// two ever execute concurrently — which is what lets protocol code stay
// lock-free on both backends.
type Clock interface {
	// Now returns the current time in milliseconds.
	Now() int64
	// Schedule runs fn after delay milliseconds. A negative delay is
	// treated as zero. It returns a cancellable Timer handle.
	Schedule(delay int64, fn func()) Timer
	// At runs fn at absolute time t. Times in the past are clamped to
	// the current instant.
	At(t int64, fn func()) Timer
	// Every schedules fn to run every period milliseconds, with the
	// first execution after firstDelay. Period must be positive.
	Every(firstDelay, period int64, fn func()) Ticker
	// Stop makes the currently executing run return after the current
	// event completes. Pending events remain queued.
	Stop()
}

// Net is what a deployed peer can do: read the clock, join and fail
// nodes, send one-way messages and RPCs, and count its traffic. It is a
// registry of nodes with join/fail lifecycle (fail-only churn), one-way
// Send with per-link latency and optional loss, Request/response RPCs
// with timeouts, and message/byte accounting. Messages to dead nodes are
// silently dropped, so failure detection is always timeout-driven, like
// on a real network. Protocol code holds a Net.
type Net interface {
	// Clock returns the clock driving this transport's deliveries.
	Clock() Clock

	// Join registers a handler at the given placement and returns its
	// fresh NodeID.
	Join(h Handler, place Placement) NodeID
	// Fail marks a node dead. In-flight messages to it are dropped on
	// delivery; it stops receiving forever (re-joining means a new
	// NodeID). Failing an already-dead node is a no-op.
	Fail(id NodeID)

	// Send delivers msg to `to` after the one-way link latency. If the
	// target is dead at delivery time the message is dropped. Sends to
	// unregistered IDs panic (protocol bug, not churn).
	//
	// msg passes to the transport, and through it to the receiver, which
	// may change it and send it on (chord forwards one pointer-typed
	// message hop by hop): the sender must not touch it again, and a
	// transport that duplicates must copy. A value nobody changes, such
	// as a boxed struct, may be sent any number of times.
	Send(from, to NodeID, msg any)
	// Request performs an RPC: req travels to the target, the target's
	// HandleRequest runs, and the response travels back. cb runs exactly
	// once: with the response, with the handler's application error, or
	// with ErrTimeout if either leg fails or the deadline expires first.
	// A timeout <= 0 selects the transport's default. If the requester
	// is dead when the response arrives, cb is not run. req, and the
	// handler's response, pass to the transport as Send's msg does.
	Request(from, to NodeID, req any, timeout int64, cb func(resp any, err error))

	// Stats returns a snapshot of the traffic counters.
	Stats() TransportStats
}

// Observer is what only the experimenter knows: the ground truth about
// other nodes that no deployed peer can ask for — a perfect failure
// detector, every node's locality, the true latency of any link. The
// harness, metrics and traces read it; a protocol that reads it does so
// through proto.Env.Oracle, where every read is pinned by a test.
type Observer interface {
	// Alive reports whether id is registered and not failed.
	Alive(id NodeID) bool
	// Locality returns the physical locality of a node. It stays valid
	// after the node fails (traces and post-mortem metrics read it).
	Locality(id NodeID) Locality
	// Latency returns the one-way latency between two nodes in ms.
	Latency(a, b NodeID) int64
}

// Transport is a backend's message layer: what a peer can do and what
// the experimenter can see, on one handle. Every backend implements it
// and Runtime.Net returns it. The union keeps the old name, and the peer
// half took the new one, because benchmark/spans embeds
// runtime.Transport in its span-recording decorator and the benchmark
// pins the surface it builds against; Net can take the name once that
// embedding goes.
type Transport interface {
	Net
	Observer
}

// Runtime bundles the seams of one run with its run control. The
// harness builds one per experiment; every handle is exclusive to that
// run.
type Runtime interface {
	// Clock is the run's time source.
	Clock() Clock
	// Net is the run's message layer.
	Net() Transport
	// Run drives the backend until the clock passes the horizon (ms) or
	// Stop is called, and returns the number of events processed. On the
	// sim backend this consumes the event queue at full speed; on the
	// realtime backend it paces execution against the wall clock.
	Run(until int64) uint64
}
