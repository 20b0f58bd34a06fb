package harness

import (
	"errors"
	"net"
	"slices"
	"sync"
	"syscall"
	"testing"

	"flowercdn/internal/runtime"
)

// runSocketGroup executes one full experiment split over `groups`
// cooperating harness.Run calls meshed over localhost TCP — the same
// wiring as `flowersim -backend socket -spawn-local N`, minus the OS
// processes. It returns the per-group results.
//
// Each group's port is reserved by listening on :0 and closing the
// listener before the backend binds it, so another socket — with
// several cells meshing at once, an outgoing dial's ephemeral source
// port — can take the port in that gap. The cell is then run again on
// fresh ports, up to three attempts in all.
func runSocketGroup(t *testing.T, protocol Protocol, groups, population int, horizon int64) []*Result {
	t.Helper()
	for attempt := 1; ; attempt++ {
		results, errs := socketGroupOnce(t, protocol, groups, population, horizon)
		if attempt < 3 && slices.ContainsFunc(errs, func(err error) bool { return errors.Is(err, syscall.EADDRINUSE) }) {
			t.Logf("attempt %d: a reserved port was taken before its group bound it (%v); retrying on fresh ports", attempt, errs)
			continue
		}
		for g, err := range errs {
			if err != nil {
				t.Fatalf("group %d failed: %v", g, err)
			}
		}
		return results
	}
}

// socketGroupOnce is one attempt of runSocketGroup, with every group's
// error.
func socketGroupOnce(t *testing.T, protocol Protocol, groups, population int, horizon int64) ([]*Result, []error) {
	addrs := make([]string, groups)
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = lis.Addr().String()
		lis.Close()
	}

	results := make([]*Result, groups)
	errs := make([]error, groups)
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
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
	return results, errs
}

// oneGroupConfig is the single-process live cell: the demo preset on a
// socket group of one, which binds no port, so cells side by side
// never race for one.
func oneGroupConfig(protocol Protocol, horizon int64) Config {
	cfg := SocketDemoConfig(50, horizon, runtime.SocketConfig{Listen: "127.0.0.1:0", Peers: []string{"127.0.0.1:0"}})
	cfg.Protocol = protocol
	return cfg
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

// TestSocketBackendSmokeAllProtocols runs every protocol
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
