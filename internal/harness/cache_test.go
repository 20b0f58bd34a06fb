package harness

import (
	"testing"

	"flowercdn/internal/sim"
)

// This file guards the cache-policy seam end to end: the unbounded
// default must be bit-identical to the pre-seam harness, bounded runs
// must stay deterministic, and hit ratio must respond monotonically to
// capacity.

// goldenTinyFingerprint is the tinyConfig() flower fingerprint,
// captured on the seed revision before content.Store grew the policy
// seam and re-pinned three times since: when the harness began minting
// the population outside the protocols, when a flower directory began
// handing joiners a snapshot of a member's key set, not the live set,
// and when the harness took over every individual's query clock. The
// unbounded path must keep reproducing it exactly: this is the
// mechanical proof that the seam is a no-op when no cache options are
// set.
const goldenTinyFingerprint = 0x319eefe7fb4cacab

func TestCacheNoneIsBitIdenticalToSeed(t *testing.T) {
	def, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if def.Fingerprint != goldenTinyFingerprint {
		t.Fatalf("default run fingerprint %#x, want seed-era %#x — the unbounded path changed behavior",
			def.Fingerprint, goldenTinyFingerprint)
	}
	explicit := tinyConfig()
	explicit.Options = map[string]any{"cache-policy": "none", "cache-capacity": 0}
	res, err := Run(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != goldenTinyFingerprint {
		t.Fatalf("explicit cache-policy=none fingerprint %#x, want %#x",
			res.Fingerprint, goldenTinyFingerprint)
	}
	if res.ProtoStat("evictions") != 0 {
		t.Fatalf("none evicted %g objects", res.ProtoStat("evictions"))
	}
}

// TestBoundedCacheDeterministic: the same bounded cell twice must
// match exactly — evictions reorder nothing.
func TestBoundedCacheDeterministic(t *testing.T) {
	cfg := tinyConfig()
	cfg.Options = map[string]any{"cache-policy": "lru", "cache-capacity": 8}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("bounded runs diverged: %#x vs %#x", a.Fingerprint, b.Fingerprint)
	}
	if a.ProtoStat("evictions") == 0 {
		t.Fatal("capacity 8 produced no evictions")
	}
	if a.ProtoStat("evictions") != b.ProtoStat("evictions") {
		t.Fatalf("eviction counts diverged: %g vs %g",
			a.ProtoStat("evictions"), b.ProtoStat("evictions"))
	}
}

// TestCacheBracketMonotone: flower hit ratio must not decrease as
// capacity grows (tiny → medium → unbounded), and the bounded runs
// must actually differ from the unbounded one. This is the quick-scale
// version of the `flowerbench -grid capacity` knee.
func TestCacheBracketMonotone(t *testing.T) {
	run := func(opts map[string]any) *Result {
		cfg := tinyConfig()
		cfg.Duration = 5 * sim.Hour
		cfg.Options = opts
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	tiny := run(map[string]any{"cache-policy": "lru", "cache-capacity": 4})
	medium := run(map[string]any{"cache-policy": "lru", "cache-capacity": 24})
	unbounded := run(nil)
	t.Logf("hit ratio: cap4 %.3f, cap24 %.3f, unbounded %.3f (evictions %g / %g / %g)",
		tiny.HitRatio, medium.HitRatio, unbounded.HitRatio,
		tiny.ProtoStat("evictions"), medium.ProtoStat("evictions"), unbounded.ProtoStat("evictions"))
	if tiny.HitRatio > medium.HitRatio || medium.HitRatio > unbounded.HitRatio {
		t.Fatalf("hit ratio not monotone in capacity: %.3f (cap 4) vs %.3f (cap 24) vs %.3f (unbounded)",
			tiny.HitRatio, medium.HitRatio, unbounded.HitRatio)
	}
	if tiny.ProtoStat("evictions") <= medium.ProtoStat("evictions") {
		t.Fatalf("smaller capacity evicted less: %g (cap 4) vs %g (cap 24)",
			tiny.ProtoStat("evictions"), medium.ProtoStat("evictions"))
	}
	if unbounded.ProtoStat("evictions") != 0 {
		t.Fatal("unbounded run evicted")
	}
}

// TestEvictionsAppearInWindowSeries: the per-window eviction counts
// behind the Fig. 3-style series are populated on a bounded run.
func TestEvictionsAppearInWindowSeries(t *testing.T) {
	cfg := tinyConfig()
	cfg.Options = map[string]any{"cache-policy": "lru", "cache-capacity": 4}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, p := range res.Series {
		total += p.Evictions
	}
	if total == 0 {
		t.Fatal("no evictions in the window series")
	}
	if got := res.ProtoStat("evictions"); total != got {
		t.Fatalf("window series evictions %g != counter total %g", total, got)
	}
}

// TestSizeAwarePolicyRuns exercises the byte-cost path end to end.
func TestSizeAwarePolicyRuns(t *testing.T) {
	cfg := tinyConfig()
	cfg.Options = map[string]any{"cache-policy": "size-aware", "cache-capacity": 8}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProtoStat("evictions") == 0 {
		t.Fatal("size-aware at 8-object budget never evicted")
	}
	if res.Hits == 0 {
		t.Fatal("size-aware run served no hits")
	}
}
