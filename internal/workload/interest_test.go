package workload

import (
	"testing"

	"flowercdn/internal/rnd"
)

func TestAssignInterestUniformByDefault(t *testing.T) {
	w, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rnd.New(1)
	counts := make(map[int]int)
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[int(w.AssignInterest(rng))]++
	}
	// Site 0 should get roughly 1/|W| of assignments.
	want := draws / w.Config().Sites
	if c := counts[0]; c < want/2 || c > want*2 {
		t.Fatalf("uniform interest: site 0 got %d of %d, want ~%d", counts[0], draws, want)
	}
}

func TestAssignInterestSkewConcentrates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InterestSkew = 2.0
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rnd.New(1)
	counts := make(map[int]int)
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[int(w.AssignInterest(rng))]++
	}
	// At skew 2 over 100 sites, site 0 holds ~61% of the mass.
	if frac := float64(counts[0]) / draws; frac < 0.5 {
		t.Fatalf("skewed interest: site 0 got %.2f, want > 0.5", frac)
	}
	if counts[0] <= counts[1] {
		t.Fatalf("site 0 (%d) not hotter than site 1 (%d)", counts[0], counts[1])
	}
}

func TestNegativeInterestSkewRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InterestSkew = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative interest skew accepted")
	}
}
