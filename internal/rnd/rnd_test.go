package rnd

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := New(8)
	same := true
	a2 := New(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	x := parent.Split("workload")
	parent2 := New(99)
	y := parent2.Split("workload")
	for i := 0; i < 50; i++ {
		if x.Uint64() != y.Uint64() {
			t.Fatal("same tag from same parent state diverged")
		}
	}
	p3 := New(99)
	z := p3.Split("churn")
	w := New(99).Split("workload")
	diff := false
	for i := 0; i < 50; i++ {
		if z.Uint64() != w.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different tags produced identical streams")
	}
}

func TestExpDurationPositiveAndMeanish(t *testing.T) {
	g := New(1)
	const n = 20000
	const mean = int64(60 * int64(60000))
	var sum float64
	for i := 0; i < n; i++ {
		d := g.ExpDuration(mean)
		if d < 1 {
			t.Fatalf("ExpDuration returned %d < 1", d)
		}
		sum += float64(d)
	}
	got := sum / n
	if math.Abs(got-float64(mean)) > 0.05*float64(mean) {
		t.Fatalf("empirical mean %.0f, want within 5%% of %d", got, mean)
	}
}

func TestUniformBounds(t *testing.T) {
	g := New(2)
	f := func(a, b int32) bool {
		lo, hi := float64(a), float64(b)
		v := g.Uniform(lo, hi)
		if hi <= lo {
			return v == lo
		}
		return v >= lo && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformDurationBounds(t *testing.T) {
	g := New(3)
	for i := 0; i < 1000; i++ {
		v := g.UniformDuration(10, 500)
		if v < 10 || v >= 500 {
			t.Fatalf("UniformDuration out of range: %d", v)
		}
	}
	if g.UniformDuration(7, 7) != 7 {
		t.Fatal("degenerate range should return lo")
	}
}

func TestPick(t *testing.T) {
	g := New(4)
	if g.Pick(0) != -1 {
		t.Fatal("Pick(0) should be -1")
	}
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := g.Pick(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Pick(5) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Pick(5) over 200 draws hit %d distinct values, want 5", len(seen))
	}
}

func TestBoolProbability(t *testing.T) {
	g := New(5)
	n, hits := 50000, 0
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if math.Abs(p-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) empirical rate %.3f", p)
	}
	if g.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := New(6)
	p := g.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	g := New(7)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	g.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

// TestRNGAllocs pins New and Split at one object each: the RNG holds its
// PCG source and the generator over it by value. Boxing them separately
// cost four objects per New + Split, and every spawned peer splits
// several streams.
func TestRNGAllocs(t *testing.T) {
	var g *RNG
	if n := testing.AllocsPerRun(100, func() { g = New(1) }); n != 1 {
		t.Errorf("New allocates %v objects, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { g = g.Split("peer") }); n != 1 {
		t.Errorf("Split allocates %v objects, want 1", n)
	}
}

func TestNormMoments(t *testing.T) {
	g := New(8)
	const n = 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := g.Norm(10, 2)
		sum += v
		sq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean-10) > 0.1 || math.Abs(sd-2) > 0.1 {
		t.Fatalf("Norm(10,2): mean=%.3f sd=%.3f", mean, sd)
	}
}

// TestSplitIntoAllocs pins SplitInto at zero objects and checks
// that it draws Split's stream: from two parents in the same state, one
// Split and one SplitInto under the same tag give the same draws, and
// leave their parents in the same state.
func TestSplitIntoAllocs(t *testing.T) {
	var dst RNG
	parent := New(3)
	if n := testing.AllocsPerRun(100, func() { parent.SplitInto(&dst, "peer") }); n != 0 {
		t.Errorf("SplitInto allocates %v objects, want 0", n)
	}
	for _, tag := range []string{"", "clock", "object", "gossip"} {
		a, b := New(11), New(11)
		a.Uint64()
		b.Uint64()
		split := a.Split(tag)
		b.SplitInto(&dst, tag)
		for i := 0; i < 64; i++ {
			if x, y := split.Uint64(), dst.Uint64(); x != y {
				t.Fatalf("tag %q, draw %d: Split gives %#x, SplitInto %#x", tag, i, x, y)
			}
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("tag %q: parents diverge after the split: %#x vs %#x", tag, x, y)
		}
	}
}
