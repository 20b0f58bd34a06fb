package harness

import (
	"math"
	"testing"

	"flowercdn/internal/sim"
)

// TestFlowerInvariantsAfterRun checks structural invariants the
// protocol must maintain through a whole churny run.
func TestFlowerInvariantsAfterRun(t *testing.T) {
	cfg := tinyConfig()
	cfg.Duration = 5 * sim.Hour
	res := runCell(t, cfg)
	// One directory per position: the audit protocol's invariant.
	if dup := res.ProtoStat("duplicate_positions"); dup != 0 {
		t.Fatalf("%g duplicate directory positions after the run", dup)
	}
	// The population stabilized near the target.
	if math.Abs(float64(res.AlivePeers-cfg.Population)) > 0.4*float64(cfg.Population) {
		t.Fatalf("alive population %d too far from target %d", res.AlivePeers, cfg.Population)
	}
	// Hit ratio trends upward: the last third of the run beats the
	// first third (the paper's "keeps on improving despite failures").
	n := len(res.Series)
	if n >= 3 {
		var early, late float64
		var earlyN, lateN int
		for i := 0; i < n/3; i++ {
			if res.Series[i].Queries > 0 {
				early += res.Series[i].HitRatio
				earlyN++
			}
		}
		for i := 2 * n / 3; i < n; i++ {
			if res.Series[i].Queries > 0 {
				late += res.Series[i].HitRatio
				lateN++
			}
		}
		if earlyN > 0 && lateN > 0 && late/float64(lateN) <= early/float64(earlyN) {
			t.Fatalf("hit ratio not improving: early %.3f late %.3f",
				early/float64(earlyN), late/float64(lateN))
		}
	}
	// Quantiles are populated and ordered.
	q := res.LookupQuantiles
	if q.P50 <= 0 || q.P50 > q.P90 || q.P90 > q.P99 {
		t.Fatalf("lookup quantiles malformed: %+v", q)
	}
}

// TestMessageLossInjection runs Flower-CDN over lossy links: the
// protocol must keep functioning (timeouts recover everything), with a
// hit ratio that degrades rather than collapses. It is a statement over
// relationSeeds, not one draw: on every seed, 5% loss keeps the tail hit
// ratio at least half the clean one.
func TestMessageLossInjection(t *testing.T) {
	for _, seed := range relationSeeds {
		clean := tinyConfig()
		clean.Seed = seed
		lossy := clean
		lossy.MessageLossRate = 0.05
		c, l := runCell(t, clean), runCell(t, lossy)
		t.Logf("seed %d: tail hit ratio %.3f lossy, %.3f clean (%.3f)",
			seed, l.TailHitRatio, c.TailHitRatio, l.TailHitRatio/c.TailHitRatio)
		if l.Queries == 0 || l.Hits == 0 {
			t.Errorf("seed %d: protocol stopped functioning under 5%% message loss", seed)
		}
		if l.TailHitRatio < c.TailHitRatio/2 {
			t.Errorf("seed %d: hit ratio collapsed under loss: %.3f vs clean %.3f", seed, l.TailHitRatio, c.TailHitRatio)
		}
		if l.NetStats.MessagesDropped == 0 {
			t.Errorf("seed %d: loss injection did not drop anything", seed)
		}
	}
}

// TestSquirrelInvariantsAfterRun sanity-checks the baseline the same
// way.
func TestSquirrelInvariantsAfterRun(t *testing.T) {
	cfg := tinyConfig()
	cfg.Protocol = ProtocolSquirrel
	res := runCell(t, cfg)
	if res.Queries == 0 {
		t.Fatal("no queries")
	}
	// Squirrel's lookups pay multi-hop routing: its mean must exceed
	// the topology's maximum single link latency.
	if res.MeanLookupMs < 500 {
		t.Fatalf("squirrel lookup mean %.0f ms implausibly low", res.MeanLookupMs)
	}
	if res.AlivePeers == 0 {
		t.Fatal("population died out")
	}
}

// TestPetalUpChurnWithLoss drives PetalUp-CDN through churn plus lossy
// links: directory splitting must keep functioning when promotion and
// keepalive traffic can vanish (only flower/squirrel had end-to-end
// loss coverage before).
func TestPetalUpChurnWithLoss(t *testing.T) {
	base := tinyConfig()
	base.Protocol = ProtocolPetalUp
	base.Options = map[string]any{"load-limit": 5}
	clean := runCell(t, base)
	lossy := base
	lossy.MessageLossRate = 0.05
	lossyRes := runCell(t, lossy)
	if lossyRes.Queries == 0 || lossyRes.Hits == 0 {
		t.Fatal("PetalUp stopped functioning under 5% message loss")
	}
	if lossyRes.NetStats.MessagesDropped == 0 {
		t.Fatal("loss injection did not drop anything")
	}
	// Splitting still happens under loss, and the hit ratio degrades
	// rather than collapses.
	if lossyRes.TailHitRatio < clean.TailHitRatio/3 {
		t.Fatalf("PetalUp hit ratio collapsed under loss: %.3f vs clean %.3f",
			lossyRes.TailHitRatio, clean.TailHitRatio)
	}
	if clean.ProtoStat("dir_promotions") == 0 {
		t.Fatal("load limit 5 never split a directory")
	}
}

// TestLossyRunsAreDeterministic is the regression test for the claim-
// transfer ordering bug: with loss injection on, every Send consumes a
// loss draw, so any map-iteration-order dependence in message emission
// makes runs diverge. Two identical lossy runs must match exactly —
// both under the paper's unbounded stores and under a bounded cache,
// where every eviction decision must be just as order-independent.
func TestLossyRunsAreDeterministic(t *testing.T) {
	for _, bounded := range []bool{false, true} {
		for _, p := range []Protocol{ProtocolFlower, ProtocolPetalUp, ProtocolSquirrel, ProtocolChordGlobal, ProtocolKoordeGlobal} {
			cfg := tinyConfig()
			cfg.Protocol = p
			cfg.Options = map[string]any{}
			if p == ProtocolPetalUp {
				cfg.Options["load-limit"] = 5
			}
			if bounded {
				cfg.Options["cache-policy"] = "lru"
				cfg.Options["cache-capacity"] = 10
			}
			cfg.Duration = 3 * sim.Hour
			cfg.MessageLossRate = 0.05
			a, b := runCell(t, cfg), rerun(t, cfg)
			if a.Queries != b.Queries || a.Hits != b.Hits || a.EventsProcessed != b.EventsProcessed {
				t.Fatalf("%s (bounded=%v): lossy runs diverged: %d/%d/%d vs %d/%d/%d", p, bounded,
					a.Queries, a.Hits, a.EventsProcessed, b.Queries, b.Hits, b.EventsProcessed)
			}
			if a.Fingerprint != b.Fingerprint {
				t.Fatalf("%s (bounded=%v): fingerprints diverged: %#x vs %#x", p, bounded,
					a.Fingerprint, b.Fingerprint)
			}
		}
	}
}

// TestPetalUpKeepsHitRatio: splitting directories must not cost
// significant hit ratio relative to classic Flower.
func TestPetalUpKeepsHitRatio(t *testing.T) {
	base := tinyConfig()
	classic := runCell(t, base)
	up := base
	up.Protocol = ProtocolPetalUp
	up.Options = map[string]any{"load-limit": 4}
	upRes := runCell(t, up)
	if upRes.TailHitRatio < classic.TailHitRatio*0.5 {
		t.Fatalf("PetalUp hit ratio %.3f collapsed vs classic %.3f",
			upRes.TailHitRatio, classic.TailHitRatio)
	}
}
