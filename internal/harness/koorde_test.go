package harness

import (
	"testing"

	"flowercdn/internal/sim"
)

// koorde-global is chord-global's deployment scheme routed over Koorde
// de Bruijn edges: the hit-ratio story should match chord-global's
// almost exactly (same directory placement, same summaries), while the
// hop-count story is where the overlays separate.

// TestKoordeGlobalServesHits: the de Bruijn-routed directory works end
// to end — queries route, homes answer, providers serve.
func TestKoordeGlobalServesHits(t *testing.T) {
	cfg := tinyConfig()
	cfg.Protocol = ProtocolKoordeGlobal
	cfg.Duration = 5 * sim.Hour
	res := runCell(t, cfg)
	if res.Queries == 0 || res.Hits == 0 {
		t.Fatalf("koorde-global inactive: queries=%d hits=%d", res.Queries, res.Hits)
	}
	if res.GossipHits != 0 || res.DirSummaryHits != 0 {
		t.Fatalf("koorde-global produced non-directory hits: gossip=%d summary=%d",
			res.GossipHits, res.DirSummaryHits)
	}
	if res.DirectoryHits != res.Hits {
		t.Fatalf("hits %d != directory hits %d", res.Hits, res.DirectoryHits)
	}
	if res.MeanHops <= 0 {
		t.Fatalf("no hop accounting: mean hops %.2f", res.MeanHops)
	}
	if res.AlivePeers == 0 {
		t.Fatal("population died out")
	}
}

// TestKoordeGlobalDeterminism: same seed, same run — the runtime
// contract every deployment must honor.
func TestKoordeGlobalDeterminism(t *testing.T) {
	cfg := tinyConfig()
	cfg.Protocol = ProtocolKoordeGlobal
	cfg.Duration = 3 * sim.Hour
	a, b := runCell(t, cfg), rerun(t, cfg)
	if a.Fingerprint != b.Fingerprint || a.EventsProcessed != b.EventsProcessed {
		t.Fatalf("same seed diverged: %x/%d vs %x/%d",
			a.Fingerprint, a.EventsProcessed, b.Fingerprint, b.EventsProcessed)
	}
}

// TestKoordeBeatsChordOnHops is the paper-facing claim the overlay
// exists to demonstrate: identical workload, identical seed, and the
// de Bruijn graph's O(log n / log b) routing resolves queries in
// strictly fewer overlay hops than Chord's O(log n) finger walk.
func TestKoordeBeatsChordOnHops(t *testing.T) {
	cfg := QuickConfig()
	cfg.Protocol = ProtocolChordGlobal
	cr := runCell(t, cfg)
	cfg.Protocol = ProtocolKoordeGlobal
	kr := runCell(t, cfg)

	if cr.MeanHops <= 0 || kr.MeanHops <= 0 {
		t.Fatalf("hop accounting missing: chord %.2f koorde %.2f", cr.MeanHops, kr.MeanHops)
	}
	t.Logf("mean hops: koorde %.2f vs chord %.2f", kr.MeanHops, cr.MeanHops)
	if kr.MeanHops >= cr.MeanHops {
		t.Fatalf("koorde mean hops %.2f not below chord-global's %.2f",
			kr.MeanHops, cr.MeanHops)
	}
	// Both must actually be answering queries for the comparison to
	// mean anything.
	if kr.Hits == 0 || cr.Hits == 0 {
		t.Fatalf("inactive run: chord hits=%d koorde hits=%d", cr.Hits, kr.Hits)
	}
}
