package runtime

import (
	"hash/fnv"
	"reflect"
	"sort"
	"sync"
)

// This file holds the two seams a *multi-process* Transport needs
// beyond the Transport interface itself: a broadcast side-channel for
// the protocol-level bootstrap state that a single-process run keeps
// in plain memory (Bus), and a registry of concrete message types so
// the wire codec can decode interface-typed payloads (RegisterWireType).
// Single-process backends implement neither; protocol code treats both
// as optional capabilities.

// Bus is the cross-process announcement channel a multi-process
// Transport optionally provides. Announce broadcasts msg to every
// OTHER process of the group (never back to the announcing one — the
// announcer already applied the state change locally); each receiving
// process invokes its subscribers on the clock's callback goroutine,
// so subscribers may touch protocol state freely.
//
// Protocols use it for the out-of-band bootstrap state the simulation
// models as shared memory: the gateway registry through which new
// clients discover the overlay. One process registers a ring member,
// every process learns a gateway.
type Bus interface {
	// Announce broadcasts msg to the other processes of the group. The
	// concrete type of msg must be registered with RegisterWireType.
	Announce(msg any)
	// Subscribe adds fn to the processes's announcement subscribers.
	// Subscriptions cannot be removed; subscribe once per run.
	Subscribe(fn func(msg any))
}

// BusOf returns the transport's announcement bus, or nil when the
// backend has none (sim: it is single-process by construction).
func BusOf(t Net) Bus {
	b, _ := t.(Bus)
	return b
}

var (
	wireMu    sync.Mutex
	wireTypes []any
)

// RegisterWireType records concrete message types that may cross a
// process boundary inside an interface-typed field (a Send/Request
// payload, a gossip entry's metadata, a Bus announcement). Protocol
// packages call it from init; NewCodec reads every recorded type into
// the codec's tag table (binary) or registers it with its decoder (gob)
// before any traffic flows. Single-process
// backends never consult the registry, so registration is free there.
func RegisterWireType(vs ...any) {
	wireMu.Lock()
	defer wireMu.Unlock()
	wireTypes = append(wireTypes, vs...)
}

// WireTypes returns a snapshot of every registered wire type.
func WireTypes() []any {
	wireMu.Lock()
	defer wireMu.Unlock()
	out := make([]any, len(wireTypes))
	copy(out, wireTypes)
	return out
}

// WireRegistrySum fingerprints the wire-type registry: FNV-1a over the
// sorted fully qualified type names. Two processes whose sums differ
// were built with different protocol sets and would disagree on binary
// type tags (or gob type availability), so the socket handshake
// exchanges this value and fails fast on mismatch instead of
// corrupting mid-run traffic.
func WireRegistrySum() uint64 {
	names := make([]string, 0, len(wireTypes))
	for _, v := range WireTypes() {
		names = append(names, typeKey(reflect.TypeOf(v)))
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	return h.Sum64()
}
