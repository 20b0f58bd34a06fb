package harness

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"flowercdn/internal/proto"
	"flowercdn/internal/protocols"
)

// The relations below are what minting the population outside the
// protocols buys: one seed, one population, whatever the protocol, so
// that a head-to-head comparison compares protocols and not draws.
// Each runs over three seeds at tinyConfig scale.

var relationSeeds = []uint64{1, 2, 3}

// populationDigest runs cfg and returns the FNV-64a of every individual
// it minted — pool index, interest, locality and placement — with the
// count.
func populationDigest(t *testing.T, cfg Config) (uint64, int) {
	t.Helper()
	h := fnv.New64a()
	n := 0
	cfg.onMint = func(idx int, ind proto.Identity) {
		var b [40]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(idx))
		binary.LittleEndian.PutUint64(b[8:], uint64(ind.Site))
		binary.LittleEndian.PutUint64(b[16:], uint64(ind.Placement.Loc))
		binary.LittleEndian.PutUint64(b[24:], math.Float64bits(ind.Placement.Pos.X))
		binary.LittleEndian.PutUint64(b[32:], math.Float64bits(ind.Placement.Pos.Y))
		h.Write(b[:])
		n++
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	return h.Sum64(), n
}

// TestOnePopulationForEveryProtocol: every protocol of one seed mints
// the same individuals in the same order.
func TestOnePopulationForEveryProtocol(t *testing.T) {
	for _, seed := range relationSeeds {
		var want uint64
		var wantN int
		for i, d := range protocols.All {
			cfg := tinyConfig()
			cfg.Seed = seed
			cfg.Protocol = Protocol(d.Info.Name)
			got, n := populationDigest(t, cfg)
			if i == 0 {
				want, wantN = got, n
				if n <= cfg.Workload.Sites*cfg.Topology.Localities {
					t.Fatalf("seed %d: %s minted %d individuals, no arrival beyond the seeds", seed, d.Info.Name, n)
				}
				continue
			}
			if got != want || n != wantN {
				t.Errorf("seed %d: %s minted %d individuals, digest %016x; %s minted %d, digest %016x",
					seed, d.Info.Name, n, got, protocols.All[0].Info.Name, wantN, want)
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
