package runtime

import (
	"fmt"
	"sort"

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

// BackendConfig is everything a backend needs to build a Runtime. The
// latency/locality model and the loss knob are backend-independent:
// the sim backend applies them to simulated deliveries, the realtime
// backend injects them into its loopback transport, so the same
// topology produces comparable traffic shapes on both.
type BackendConfig struct {
	// Topo is the latency/locality model deliveries sample from.
	Topo *topology.Topology
	// LossRate drops each one-way transmission with this probability
	// (0 = the paper's reliable-link model).
	LossRate float64
	// LossRNG draws the loss decisions; required when LossRate > 0.
	LossRNG *rnd.RNG
	// Socket configures the process group of a multi-process backend
	// ("socket"); single-process backends ignore it.
	Socket *SocketConfig
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

// BackendFactory builds a Runtime for one run.
type BackendFactory func(cfg BackendConfig) (Runtime, error)

var backends = map[string]BackendFactory{}

// RegisterBackend adds a named backend to the registry. Backends
// register themselves in init functions (internal/simrt: "sim",
// internal/rtnet: "realtime"); registering a duplicate name panics, as
// it indicates conflicting packages rather than a runtime condition.
func RegisterBackend(name string, f BackendFactory) {
	if name == "" || f == nil {
		panic("runtime: RegisterBackend with empty name or nil factory")
	}
	if _, dup := backends[name]; dup {
		panic(fmt.Sprintf("runtime: backend %q registered twice", name))
	}
	backends[name] = f
}

// BackendRegistered reports whether name resolves to a backend.
func BackendRegistered(name string) bool {
	_, ok := backends[name]
	return ok
}

// Backends returns the registered backend names, sorted.
func Backends() []string {
	out := make([]string, 0, len(backends))
	for name := range backends {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewBackend builds a Runtime from a registered backend.
func NewBackend(name string, cfg BackendConfig) (Runtime, error) {
	f, ok := backends[name]
	if !ok {
		return nil, fmt.Errorf("runtime: unknown backend %q (registered: %v)", name, Backends())
	}
	if cfg.Topo == nil {
		return nil, fmt.Errorf("runtime: backend %q needs a topology", name)
	}
	if cfg.LossRate > 0 && cfg.LossRNG == nil {
		return nil, fmt.Errorf("runtime: backend %q: loss rate needs an RNG", name)
	}
	return f(cfg)
}
