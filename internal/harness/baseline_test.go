package harness

import (
	"testing"

	"flowercdn/internal/sim"
)

// The two reference deployments prove the pluggable-runtime seam: they
// were added without touching the harness, and they bracket Flower-CDN
// exactly as the comparison story requires.

// TestOriginOnlyIsTheFloor: no P2P system means no hits, ever, and a
// transfer distance equal to the client-origin latency.
func TestOriginOnlyIsTheFloor(t *testing.T) {
	cfg := tinyConfig()
	cfg.Protocol = ProtocolOriginOnly
	res := runCell(t, cfg)
	if res.Queries == 0 {
		t.Fatal("no queries recorded")
	}
	if res.Hits != 0 || res.HitRatio != 0 {
		t.Fatalf("origin-only produced hits: %d (ratio %.3f)", res.Hits, res.HitRatio)
	}
	if res.Misses != res.Queries {
		t.Fatalf("misses %d != queries %d", res.Misses, res.Queries)
	}
	if res.MeanTransferMs <= 0 || res.MeanLookupMs != res.MeanTransferMs {
		t.Fatalf("origin-only latency accounting off: lookup %.1f transfer %.1f",
			res.MeanLookupMs, res.MeanTransferMs)
	}
	if res.ProtoStat("origin_fetches") != float64(res.Queries) {
		t.Fatalf("streamed counter origin_fetches=%g != queries %d",
			res.ProtoStat("origin_fetches"), res.Queries)
	}
	if res.AlivePeers == 0 {
		t.Fatal("population died out")
	}
}

// TestChordGlobalProducesDirectoryHits: the global directory serves a
// meaningful share of queries from peers (all hits are directory hits —
// there is no gossip in this protocol).
func TestChordGlobalProducesDirectoryHits(t *testing.T) {
	cfg := tinyConfig()
	cfg.Protocol = ProtocolChordGlobal
	cfg.Duration = 5 * sim.Hour
	res := runCell(t, cfg)
	if res.Queries == 0 || res.Hits == 0 {
		t.Fatalf("chord-global inactive: queries=%d hits=%d", res.Queries, res.Hits)
	}
	if res.GossipHits != 0 || res.DirSummaryHits != 0 {
		t.Fatalf("chord-global produced non-directory hits: gossip=%d summary=%d",
			res.GossipHits, res.DirSummaryHits)
	}
	if res.DirectoryHits != res.Hits {
		t.Fatalf("hits %d != directory hits %d", res.Hits, res.DirectoryHits)
	}
	if res.ProtoStat("summary_pushes") == 0 {
		t.Fatal("no summary refreshes streamed")
	}
	if res.AlivePeers == 0 {
		t.Fatal("population died out")
	}
}

// TestBaselineDeterminism: same seed, same stats — for both new
// baselines, as the runtime contract requires.
func TestBaselineDeterminism(t *testing.T) {
	for _, p := range []Protocol{ProtocolOriginOnly, ProtocolChordGlobal} {
		cfg := tinyConfig()
		cfg.Protocol = p
		cfg.Duration = 3 * sim.Hour
		a, b := runCell(t, cfg), rerun(t, cfg)
		if a.Queries != b.Queries || a.Hits != b.Hits || a.EventsProcessed != b.EventsProcessed {
			t.Fatalf("%s: same seed diverged: %d/%d/%d vs %d/%d/%d", p,
				a.Queries, a.Hits, a.EventsProcessed, b.Queries, b.Hits, b.EventsProcessed)
		}
	}
}

// TestBaselinesBracketFlower is the comparison-story invariant:
// origin-only <= chord-global <= flower on (tail) hit ratio. The gap
// on either side is what locality-blind directory caching does and
// does not recover. It runs at the quick-compare scale (`flowerbench
// -grid compare`): at toy populations the ordering genuinely inverts,
// because a handful of peers per locality fragments flower's petals
// while a global directory aggregates the whole site.
func TestBaselinesBracketFlower(t *testing.T) {
	cfg := QuickConfig()
	fr := runCell(t, cfg)
	cfg.Protocol = ProtocolOriginOnly
	or := runCell(t, cfg)
	cfg.Protocol = ProtocolChordGlobal
	gr := runCell(t, cfg)

	if or.TailHitRatio != 0 {
		t.Fatalf("origin-only tail hit ratio %.3f != 0", or.TailHitRatio)
	}
	if gr.TailHitRatio <= or.TailHitRatio {
		t.Fatalf("chord-global %.3f not above origin-only %.3f", gr.TailHitRatio, or.TailHitRatio)
	}
	if gr.TailHitRatio > fr.TailHitRatio {
		t.Fatalf("chord-global tail hit %.3f above flower %.3f — locality should still win",
			gr.TailHitRatio, fr.TailHitRatio)
	}
	// The locality gap itself: flower transfers must be meaningfully
	// shorter than the locality-blind baseline's.
	if fr.MeanTransferMs >= gr.MeanTransferMs {
		t.Fatalf("flower transfer %.0f ms not below chord-global %.0f ms",
			fr.MeanTransferMs, gr.MeanTransferMs)
	}
}
