package harness

import (
	"net"
	"sync"
	"testing"

	_ "flowercdn/internal/protocols"
	"flowercdn/internal/runtime"
)

// runSocketGroup executes one full experiment split over `groups`
// cooperating harness.Run calls meshed over localhost TCP — the same
// wiring as `flowersim -backend socket -spawn-local N`, minus the OS
// processes. It returns the per-group results.
func runSocketGroup(t *testing.T, protocol Protocol, groups, population int, horizon int64) []*Result {
	t.Helper()
	listeners := make([]net.Listener, groups)
	addrs := make([]string, groups)
	for i := range listeners {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = lis.Addr().String()
		// The harness backend listens itself; we only used the listener
		// to reserve an ephemeral port.
		lis.Close()
		listeners[i] = nil
	}

	results := make([]*Result, groups)
	errs := make([]error, groups)
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := SocketDemoConfig(population, horizon, runtime.SocketConfig{
				Listen: addrs[g],
				Peers:  addrs,
				Group:  g,
			})
			cfg.Protocol = protocol
			results[g], errs[g] = Run(cfg)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("group %d failed: %v", g, err)
		}
	}
	return results
}

// TestSocketBackendSmoke runs the flagship protocol across three
// TCP-connected harness instances: queries must flow in every group,
// hits must happen somewhere (content crossing process boundaries),
// and every group must shut down cleanly.
func TestSocketBackendSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock run")
	}
	results := runSocketGroup(t, ProtocolFlower, 3, 45, 6_000)

	var queries, hits, misses uint64
	for g, res := range results {
		if res.Backend != "socket" {
			t.Errorf("group %d result backend %q", g, res.Backend)
		}
		if res.Queries == 0 {
			t.Errorf("group %d issued no queries", g)
		}
		if res.AlivePeers == 0 {
			t.Errorf("group %d has no peers alive at the end", g)
		}
		queries += res.Queries
		hits += res.Hits
		misses += res.Misses
	}
	if queries == 0 || hits+misses == 0 {
		t.Fatalf("no live queries answered: %d queries, %d hits, %d misses", queries, hits, misses)
	}
	if hits == 0 {
		t.Errorf("no hits across %d queries — the petals never formed across processes", queries)
	}
}

// TestSocketBackendSmokeAllProtocols runs every registered protocol
// once over two groups at toy scale, on the default (binary) codec: the
// backend seam is genuinely protocol-agnostic, every driver's wire
// marshallers included.
func TestSocketBackendSmokeAllProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock runs")
	}
	eachProtocolAtOnce(t, func(t *testing.T, name string) {
		results := runSocketGroup(t, Protocol(name), 2, 24, 4_000)
		var queries, answered uint64
		for _, res := range results {
			queries += res.Queries
			answered += res.Hits + res.Misses
		}
		if queries == 0 {
			t.Fatal("no queries at all")
		}
		if answered == 0 {
			t.Fatal("no query ever resolved")
		}
	})
}

// TestSocketConfigValidation pins the config surface errors.
func TestSocketConfigValidation(t *testing.T) {
	cfg := QuickConfig()
	cfg.Backend = "socket"
	if err := cfg.Validate(); err == nil {
		t.Fatal("socket backend without Socket config validated")
	}
	cfg.Socket = &runtime.SocketConfig{Listen: "127.0.0.1:0", Peers: []string{"127.0.0.1:0"}, Group: 1}
	if err := cfg.Validate(); err == nil {
		t.Fatal("out-of-range group validated")
	}
	cfg.Socket.Group = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid socket config rejected: %v", err)
	}
	sim := QuickConfig()
	sim.Socket = &runtime.SocketConfig{Listen: "x", Peers: []string{"x"}, Group: 0}
	if err := sim.Validate(); err == nil {
		t.Fatal("Socket config on sim backend validated")
	}
}
