package harness

import (
	"sync"
	"testing"

	"flowercdn/internal/protocols"
)

// eachProtocolAtOnce runs cell as one subtest per protocol,
// all of them at once whatever -parallel says: wall-clock cells sleep
// through their horizons on their own clocks and ports, so side by side
// they cost one horizon, where t.Parallel subtests would still queue
// GOMAXPROCS at a time.
func eachProtocolAtOnce(t *testing.T, cell func(t *testing.T, name string)) {
	var wg sync.WaitGroup
	for _, name := range protocols.Names() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.Run(name, func(t *testing.T) { cell(t, name) })
		}()
	}
	wg.Wait()
}

// TestCrossBackendSmokeSim runs every protocol at toy scale
// on the deterministic backend with the compressed demo timescales and
// asserts the basic health signals: queries flow, the population is
// alive at the end, and every head-to-head protocol achieves a
// non-zero hit ratio.
func TestCrossBackendSmokeSim(t *testing.T) {
	for _, name := range protocols.Names() {
		t.Run(name, func(t *testing.T) {
			cfg := demoConfig(50, 10_000)
			cfg.Protocol = Protocol(name)
			res := runCell(t, cfg)
			if res.Queries == 0 {
				t.Fatal("no queries at all")
			}
			if res.AlivePeers == 0 {
				t.Fatal("no peers alive at the end of the run")
			}
			d, _ := protocols.Lookup(name)
			if d.Info.Compare && res.Hits == 0 {
				t.Fatalf("comparable protocol served zero hits over %d queries", res.Queries)
			}
			if res.Fingerprint == 0 {
				t.Fatal("zero fingerprint")
			}
			if res.Backend != "sim" {
				t.Fatalf("result backend %q", res.Backend)
			}
		})
	}
}

// TestCacheBoundedSmokeSim runs every protocol once more
// with an LRU-bounded store small enough that evictions must happen:
// the cache seam is threaded through every driver, and a bounded run
// completes cleanly on the deterministic backend.
func TestCacheBoundedSmokeSim(t *testing.T) {
	for _, name := range protocols.Names() {
		t.Run(name, func(t *testing.T) {
			cfg := demoConfig(50, 10_000)
			cfg.Protocol = Protocol(name)
			cfg.Options["cache-policy"] = "lru"
			cfg.Options["cache-capacity"] = 2
			res := runCell(t, cfg)
			if res.Queries == 0 {
				t.Fatal("no queries at all")
			}
			if res.AlivePeers == 0 {
				t.Fatal("no peers alive at the end of the run")
			}
			if res.ProtoStat("evictions") == 0 {
				t.Fatalf("%s at capacity 2 never evicted over %d queries", name, res.Queries)
			}
		})
	}
}

// TestCrossBackendSmokeRealtime runs every protocol in real time, as
// one process on a socket group of one, for a short horizon each — a
// run genuinely takes its 1.5 s, so the protocols run side by side —
// and asserts clean completion with live queries. Hit assertions are
// limited to the query-dense flower family: at seconds-scale horizons
// the sparser protocols' hit counts are legitimately noisy (that's what
// the deterministic leg above pins down).
func TestCrossBackendSmokeRealtime(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test skipped in -short mode")
	}
	eachProtocolAtOnce(t, func(t *testing.T, name string) {
		res := runCell(t, oneGroupConfig(Protocol(name), 1500))
		if res.Backend != "socket" {
			t.Fatalf("result backend %q", res.Backend)
		}
		if res.Queries == 0 {
			t.Fatal("no queries at all on the wall clock")
		}
		if res.AlivePeers == 0 {
			t.Fatal("no peers alive at the end of the run")
		}
		if (name == "flower" || name == "petalup") && res.Hits == 0 {
			t.Fatalf("%s served zero hits over %d queries", name, res.Queries)
		}
	})
}

// TestCacheBoundedSmokeRealtime repeats the bounded-cache smoke in real
// time on a socket group of one: the eviction path runs outside the
// simulator too, with live eviction counters and a clean shutdown.
// 1.5 s per protocol, side by side.
func TestCacheBoundedSmokeRealtime(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test skipped in -short mode")
	}
	eachProtocolAtOnce(t, func(t *testing.T, name string) {
		cfg := oneGroupConfig(Protocol(name), 1500)
		cfg.Options["cache-policy"] = "lru"
		cfg.Options["cache-capacity"] = 2
		res := runCell(t, cfg)
		if res.Backend != "socket" {
			t.Fatalf("result backend %q", res.Backend)
		}
		if res.Queries == 0 {
			t.Fatal("no queries at all on the wall clock")
		}
		if res.AlivePeers == 0 {
			t.Fatal("no peers alive at the end of the run")
		}
		if res.ProtoStat("evictions") == 0 {
			t.Fatalf("%s at capacity 2 never evicted over %d queries", name, res.Queries)
		}
	})
}
