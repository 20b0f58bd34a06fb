package harness

import (
	"testing"

	"flowercdn/internal/metrics"
	"flowercdn/internal/runtime"
)

// TestFingerprintDeterministic runs the same cell twice and demands
// identical fingerprints — the in-process half of the cross-process CI
// check (make fingerprint-check), and the mechanical tripwire for any
// future map-order nondeterminism feeding the event stream.
func TestFingerprintDeterministic(t *testing.T) {
	cfg := QuickConfig()
	cfg.Population = 120
	cfg.Duration /= 4
	cfg.MessageLossRate = 0.05 // loss consumes RNG draws per send: the historically fragile path

	a, b := runCell(t, cfg), rerun(t, cfg)
	if a.Fingerprint == 0 {
		t.Fatal("zero fingerprint")
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same cell, different fingerprints: %016x vs %016x", a.Fingerprint, b.Fingerprint)
	}

	// A different seed must perturb the fingerprint (the hash actually
	// covers the run, not just the config).
	cfg.Seed++
	if c := runCell(t, cfg); c.Fingerprint == a.Fingerprint {
		t.Fatalf("different seeds, same fingerprint %016x", a.Fingerprint)
	}
}

// TestBigPetalFingerprint pins a flower cell whose petals grow to
// hundreds of members, where the P = 200 pins of `make
// fingerprint-check` stay near twenty: a change to a directory's member
// view must reproduce every view seed and sweep there draw for draw. It
// is `flowersim -p 5000 -hours 1 -sites 12 -active 2 -objects 150
// -print-fingerprint`.
func TestBigPetalFingerprint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Population = 5000
	cfg.Duration = runtime.Hour
	cfg.Workload.Sites = 12
	cfg.Workload.ActiveSites = 2
	cfg.Workload.ObjectsPerSite = 150
	res := runCell(t, cfg)
	const want = 0xdb01493358073919
	if res.Fingerprint != want {
		t.Fatalf("fingerprint %016x, pinned %016x", res.Fingerprint, uint64(want))
	}
}

// TestOnWindowFiresLive checks the per-window observer: closed windows
// are surfaced during the run, in order, and match the final series.
// runCell's own hook sees them close and hands them on to cfg.OnWindow.
func TestOnWindowFiresLive(t *testing.T) {
	cfg := QuickConfig()
	cfg.Population = 80
	cfg.Duration /= 2
	var live []metrics.SeriesPoint
	cfg.OnWindow = func(p metrics.SeriesPoint) { live = append(live, p) }
	res := runCell(t, cfg)
	if len(live) == 0 {
		t.Fatal("OnWindow never fired")
	}
	for i, p := range live {
		if i >= len(res.Series) {
			// Windows silent through end-of-run are surfaced live as
			// empty points even though the final series never
			// materializes them.
			if p.Queries != 0 {
				t.Fatalf("live-only window %d has %d queries", i, p.Queries)
			}
			continue
		}
		if p.Start != res.Series[i].Start || p.Queries != res.Series[i].Queries {
			t.Fatalf("live window %d = %+v, final series says %+v", i, p, res.Series[i])
		}
	}
}
