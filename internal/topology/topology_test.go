package topology

import (
	"testing"
	"testing/quick"

	"flowercdn/internal/rnd"
)

func newTestTopo(t *testing.T) *Topology {
	t.Helper()
	topo, err := New(DefaultConfig(), rnd.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestNewValidation(t *testing.T) {
	rng := rnd.New(1)
	cases := []Config{
		{Localities: 0, MinLatency: 10, MaxLatency: 500},
		{Localities: 6, MinLatency: -1, MaxLatency: 500},
		{Localities: 6, MinLatency: 100, MaxLatency: 50},
	}
	for i, cfg := range cases {
		if _, err := New(cfg, rng); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if _, err := New(DefaultConfig(), rng); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestLandmarkCount(t *testing.T) {
	for _, k := range []int{1, 2, 3, 6, 7, 16} {
		cfg := DefaultConfig()
		cfg.Localities = k
		topo, err := New(cfg, rnd.New(2))
		if err != nil {
			t.Fatal(err)
		}
		if topo.Localities() != k {
			t.Fatalf("Localities() = %d, want %d", topo.Localities(), k)
		}
		for l := 0; l < k; l++ {
			p := topo.Landmark(Locality(l))
			if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
				t.Fatalf("landmark %d outside unit square: %+v", l, p)
			}
		}
	}
}

func TestLatencyBounds(t *testing.T) {
	topo := newTestTopo(t)
	rng := rnd.New(3)
	for i := 0; i < 5000; i++ {
		a := Point{rng.Float64(), rng.Float64()}
		b := Point{rng.Float64(), rng.Float64()}
		l := topo.Latency(a, b)
		if l < 10 || l > 500 {
			t.Fatalf("latency %d outside [10,500] for %+v %+v", l, a, b)
		}
	}
}

func TestLatencySymmetricAndReflexiveMin(t *testing.T) {
	topo := newTestTopo(t)
	f := func(ax, ay, bx, by uint16) bool {
		a := Point{float64(ax) / 65535, float64(ay) / 65535}
		b := Point{float64(bx) / 65535, float64(by) / 65535}
		return topo.Latency(a, b) == topo.Latency(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	p := Point{0.3, 0.7}
	if got := topo.Latency(p, p); got != 10 {
		t.Fatalf("self latency = %d, want MinLatency 10", got)
	}
}

func TestLatencyMonotoneInDistance(t *testing.T) {
	topo := newTestTopo(t)
	a := Point{0, 0}
	prev := int64(0)
	for d := 0.0; d <= 1.4; d += 0.05 {
		l := topo.Latency(a, Point{clamp01(d), clamp01(d)})
		if l < prev {
			t.Fatalf("latency decreased with distance: %d after %d", l, prev)
		}
		prev = l
	}
}

func TestIntraVsInterLocalityLatency(t *testing.T) {
	topo := newTestTopo(t)
	rng := rnd.New(4)
	var intraSum, interSum float64
	var intraN, interN int
	places := make([]Placement, 600)
	for i := range places {
		places[i] = topo.Place(rng)
	}
	for i := 0; i < len(places); i++ {
		for j := i + 1; j < len(places); j++ {
			l := float64(topo.Latency(places[i].Pos, places[j].Pos))
			if places[i].Loc == places[j].Loc {
				intraSum += l
				intraN++
			} else {
				interSum += l
				interN++
			}
		}
	}
	if intraN == 0 || interN == 0 {
		t.Fatal("degenerate placement distribution")
	}
	intra, inter := intraSum/float64(intraN), interSum/float64(interN)
	if intra >= inter/2 {
		t.Fatalf("intra-locality latency %.1f should be well below inter %.1f", intra, inter)
	}
	if intra > 100 {
		t.Fatalf("mean intra-locality latency %.1f ms too high for locality gains", intra)
	}
}

func TestPlaceAssignsNearestLandmark(t *testing.T) {
	topo := newTestTopo(t)
	rng := rnd.New(5)
	for i := 0; i < 1000; i++ {
		pl := topo.Place(rng)
		want := topo.LocalityOf(pl.Pos)
		if pl.Loc != want {
			t.Fatalf("placement locality %d != nearest landmark %d", pl.Loc, want)
		}
	}
}

func TestPlaceAtTargetsLandmark(t *testing.T) {
	topo := newTestTopo(t)
	rng := rnd.New(6)
	// The vast majority of placements targeted at landmark l should be
	// binned to l (Gaussian noise occasionally crosses the boundary).
	hits, n := 0, 2000
	for i := 0; i < n; i++ {
		l := Locality(i % topo.Localities())
		if topo.PlaceAt(l, rng).Loc == l {
			hits++
		}
	}
	if float64(hits)/float64(n) < 0.9 {
		t.Fatalf("only %d/%d targeted placements landed in their locality", hits, n)
	}
}

func TestPlaceAtOutOfRangePanics(t *testing.T) {
	topo := newTestTopo(t)
	defer func() {
		if recover() == nil {
			t.Fatal("PlaceAt with bad locality did not panic")
		}
	}()
	topo.PlaceAt(Locality(99), rnd.New(7))
}

func TestPlacementsCoverAllLocalities(t *testing.T) {
	topo := newTestTopo(t)
	rng := rnd.New(8)
	seen := map[Locality]int{}
	for i := 0; i < 3000; i++ {
		seen[topo.Place(rng).Loc]++
	}
	if len(seen) != topo.Localities() {
		t.Fatalf("placements covered %d localities, want %d", len(seen), topo.Localities())
	}
	for l, n := range seen {
		if n < 200 {
			t.Fatalf("locality %d underpopulated: %d of 3000", l, n)
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	build := func() []Point {
		topo := MustNew(DefaultConfig(), rnd.New(42))
		pts := make([]Point, topo.Localities())
		for i := range pts {
			pts[i] = topo.Landmark(Locality(i))
		}
		return pts
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("landmark layout not deterministic for fixed seed")
		}
	}
}
