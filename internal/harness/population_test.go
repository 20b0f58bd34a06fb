package harness

import (
	"testing"

	"flowercdn/internal/proto"
	"flowercdn/internal/protocols"
)

// The relations below are what minting the population outside the
// protocols buys: one seed, one population, whatever the protocol, so
// that a head-to-head comparison compares protocols and not draws.
// Each runs over three seeds at tinyConfig scale.

var relationSeeds = []uint64{1, 2, 3}

// TestOnePopulationForEveryProtocol: every protocol of one seed mints
// the same individuals in the same order, and they query at the same
// instants — the harness owns the query clock, so when a protocol's
// peer joins its overlay cannot move it.
func TestOnePopulationForEveryProtocol(t *testing.T) {
	for _, seed := range relationSeeds {
		var want digests
		for i, d := range protocols.All {
			cfg := tinyConfig()
			cfg.Seed = seed
			cfg.Protocol = Protocol(d.Info.Name)
			got := cellOf(t, cfg).digests
			if i == 0 {
				want = got
				if got.minted <= cfg.Workload.Sites*cfg.Topology.Localities || got.ticked == 0 {
					t.Fatalf("seed %d: %s minted %d individuals and ticked %d times: no arrival beyond the seeds, or no query",
						seed, d.Info.Name, got.minted, got.ticked)
				}
				continue
			}
			if got.population != want.population || got.minted != want.minted {
				t.Errorf("seed %d: %s minted %d individuals, digest %016x; %s minted %d, digest %016x",
					seed, d.Info.Name, got.minted, got.population, protocols.All[0].Info.Name, want.minted, want.population)
			}
			if got.ticks != want.ticks || got.ticked != want.ticked {
				t.Errorf("seed %d: %s ticked %d times, digest %016x; %s ticked %d, digest %016x",
					seed, d.Info.Name, got.ticked, got.ticks, protocols.All[0].Info.Name, want.ticked, want.ticks)
			}
		}
	}
}

// TestUnreachedLoadLimitIsFlower: petalup whose load limit no petal
// reaches runs flower's code path on flower's draws, so it prints
// flower's fingerprint.
func TestUnreachedLoadLimitIsFlower(t *testing.T) {
	for _, seed := range relationSeeds {
		cfg := tinyConfig()
		cfg.Seed = seed
		flower := runCell(t, cfg)
		cfg.Protocol = ProtocolPetalUp
		cfg.Options = proto.Options{"load-limit": 100000}
		petalup := runCell(t, cfg)
		if petalup.ProtoStat("dir_promotions") != 0 {
			t.Fatalf("seed %d: a petal reached the load limit", seed)
		}
		if petalup.Fingerprint != flower.Fingerprint {
			t.Errorf("seed %d: petalup fingerprint %016x, flower %016x", seed, petalup.Fingerprint, flower.Fingerprint)
		}
	}
}

// TestUnreachedCapacityIsUnbounded: an LRU store no individual fills
// runs as the unbounded one does.
func TestUnreachedCapacityIsUnbounded(t *testing.T) {
	for _, seed := range relationSeeds {
		cfg := tinyConfig()
		cfg.Seed = seed
		unbounded := runCell(t, cfg)
		cfg.Options = proto.Options{"cache-policy": "lru", "cache-capacity": 1_000_000}
		lru := runCell(t, cfg)
		if lru.ProtoStat("evictions") != 0 {
			t.Fatalf("seed %d: capacity 10^6 evicted", seed)
		}
		if lru.Fingerprint != unbounded.Fingerprint {
			t.Errorf("seed %d: lru fingerprint %016x, unbounded %016x", seed, lru.Fingerprint, unbounded.Fingerprint)
		}
	}
}
