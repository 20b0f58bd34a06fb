package harness

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"flowercdn/internal/content"
	"flowercdn/internal/proto"
	"flowercdn/internal/protocols"
)

// The relations below are what minting the population outside the
// protocols buys: one seed, one population, whatever the protocol, so
// that a head-to-head comparison compares protocols and not draws.
// Each runs over three seeds at tinyConfig scale.

var relationSeeds = []uint64{1, 2, 3}

// digests is what one run says about its population and its query
// clock: the FNV-64a of every individual it minted — pool index,
// interest, locality and placement — and of every query tick —
// individual, interest and instant — with the counts.
type digests struct {
	population, ticks uint64
	minted, ticked    int
}

// runDigests runs cfg and returns its digests.
func runDigests(t *testing.T, cfg Config) digests {
	t.Helper()
	pop, ticks := fnv.New64a(), fnv.New64a()
	var d digests
	index := map[*content.Store]int{} // an individual's store is its own
	cfg.onMint = func(idx int, ind proto.Identity) {
		var b [40]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(idx))
		binary.LittleEndian.PutUint64(b[8:], uint64(ind.Site))
		binary.LittleEndian.PutUint64(b[16:], uint64(ind.Placement.Loc))
		binary.LittleEndian.PutUint64(b[24:], math.Float64bits(ind.Placement.Pos.X))
		binary.LittleEndian.PutUint64(b[32:], math.Float64bits(ind.Placement.Pos.Y))
		pop.Write(b[:])
		index[ind.Store] = idx
		d.minted++
	}
	cfg.onTick = func(ind proto.Identity, at int64) {
		var b [24]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(index[ind.Store]))
		binary.LittleEndian.PutUint64(b[8:], uint64(ind.Site))
		binary.LittleEndian.PutUint64(b[16:], uint64(at))
		ticks.Write(b[:])
		d.ticked++
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	d.population, d.ticks = pop.Sum64(), ticks.Sum64()
	return d
}

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
			got := runDigests(t, cfg)
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
		flower, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Protocol = ProtocolPetalUp
		cfg.Options = proto.Options{"load-limit": 100000}
		petalup, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
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
		unbounded, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Options = proto.Options{"cache-policy": "lru", "cache-capacity": 1_000_000}
		lru, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if lru.ProtoStat("evictions") != 0 {
			t.Fatalf("seed %d: capacity 10^6 evicted", seed)
		}
		if lru.Fingerprint != unbounded.Fingerprint {
			t.Errorf("seed %d: lru fingerprint %016x, unbounded %016x", seed, lru.Fingerprint, unbounded.Fingerprint)
		}
	}
}
