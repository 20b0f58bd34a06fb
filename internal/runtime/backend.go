package runtime

import (
	"fmt"
	"slices"

	"flowercdn/internal/rnd"
	"flowercdn/internal/topology"
)

// Placement and Locality alias the topology model's types so the Net
// and Observer interfaces can be read without a second import. Protocol
// code may use either spelling.
type (
	Placement = topology.Placement
	Locality  = topology.Locality
)

// BackendConfig is what a backend added with RegisterBackend is built
// from. The latency/locality model and the loss knob are
// backend-independent: every backend applies them to its deliveries, so
// the same topology produces comparable traffic shapes on all of them.
type BackendConfig struct {
	// Topo is the latency/locality model deliveries sample from.
	Topo *topology.Topology
	// LossRate drops each one-way transmission with this probability
	// (0 = the paper's reliable-link model).
	LossRate float64
	// LossRNG draws the loss decisions; required when LossRate > 0.
	LossRNG *rnd.RNG
}

// SocketConfig describes one process of a socket-backend group: the
// full index-ordered peer address list (identical in every process)
// and this process's position in it. Every process hosts one peer
// group — the slice of the population the harness assigns to its
// index — and exchanges the address registry with the others at
// startup before any protocol traffic flows.
type SocketConfig struct {
	// Listen is this process's TCP listen address (host:port).
	Listen string
	// Peers lists every group's address, index-ordered; Peers[Group]
	// names this process. len(Peers) is the group count.
	Peers []string
	// Group is this process's index into Peers.
	Group int
	// Codec names the wire codec for payload serialization; "" means
	// DefaultCodec, the one every run uses: no flag or option sets it,
	// only the wire benchmark, which names "binary". Every process of a
	// group must configure the same codec — the handshake rejects mixed
	// groups.
	Codec string
}

// Validate checks the group description.
func (c *SocketConfig) Validate() error {
	if c == nil {
		return fmt.Errorf("runtime: nil socket config")
	}
	if len(c.Peers) < 1 {
		return fmt.Errorf("runtime: socket config needs at least one peer address")
	}
	if c.Group < 0 || c.Group >= len(c.Peers) {
		return fmt.Errorf("runtime: socket group %d out of range [0, %d)", c.Group, len(c.Peers))
	}
	if c.Listen == "" {
		return fmt.Errorf("runtime: socket config needs a listen address")
	}
	if _, err := codecBuilder(c.Codec); err != nil {
		return err
	}
	return nil
}

// Groups returns the number of cooperating processes.
func (c *SocketConfig) Groups() int { return len(c.Peers) }

// Backends returns the built-in backends, in listing order. Each is a
// clock plus a leg, and the harness builds both:
//
//	sim     the discrete-event engine (internal/sim) and simnet
//	socket  simnet joined to a TCP process group (internal/socknet),
//	        then a wall clock (internal/wallclock) bound once the mesh
//	        is up; a group of one is a single-process live run
func Backends() []string { return []string{"sim", "socket"} }

// BackendFactory builds a Runtime for one run.
type BackendFactory func(cfg BackendConfig) (Runtime, error)

var extraBackends = map[string]BackendFactory{}

// RegisterBackend adds a backend built outside the harness — a
// decorated sim, say, that records spans or checks timer use — under
// name, for harness.Config.Backend to select. It panics on an empty
// name, a nil factory, a duplicate, or the name of a built-in, which
// the harness would otherwise build in its place without a word.
func RegisterBackend(name string, f BackendFactory) {
	if name == "" || f == nil {
		panic("runtime: RegisterBackend with empty name or nil factory")
	}
	if slices.Contains(Backends(), name) {
		panic(fmt.Sprintf("runtime: backend %q is built in", name))
	}
	if _, dup := extraBackends[name]; dup {
		panic(fmt.Sprintf("runtime: backend %q registered twice", name))
	}
	extraBackends[name] = f
}

// RegisteredBackend returns the factory RegisterBackend added under
// name, or nil.
func RegisteredBackend(name string) BackendFactory { return extraBackends[name] }
