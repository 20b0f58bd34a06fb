package bloom

import (
	"testing"
	"testing/quick"

	"flowercdn/internal/rnd"
)

func TestNoFalseNegatives(t *testing.T) {
	// The defining property: every added key is reported present.
	f := func(keys []uint64) bool {
		fl := NewForCapacity(len(keys)+1, 0.01)
		for _, k := range keys {
			fl.Add(k)
		}
		for _, k := range keys {
			if !fl.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	const n = 5000
	const target = 0.01
	fl := NewForCapacity(n, target)
	rng := rnd.New(1)
	present := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		k := rng.Uint64()
		present[k] = true
		fl.Add(k)
	}
	fp, trials := 0, 100000
	for i := 0; i < trials; i++ {
		k := rng.Uint64()
		if present[k] {
			continue
		}
		if fl.Contains(k) {
			fp++
		}
	}
	rate := float64(fp) / float64(trials)
	if rate > target*3 {
		t.Fatalf("false positive rate %.4f, want near %.2f", rate, target)
	}
}

func TestEmptyFilterContainsNothing(t *testing.T) {
	fl := New(1024, 4)
	rng := rnd.New(2)
	for i := 0; i < 1000; i++ {
		if fl.Contains(rng.Uint64()) {
			t.Fatal("empty filter reported a key present")
		}
	}
}

func TestGeometryNormalization(t *testing.T) {
	fl := New(0, 0)
	if fl.Bits() < 64 || fl.Hashes() < 1 {
		t.Fatalf("degenerate geometry not normalized: %d bits %d hashes", fl.Bits(), fl.Hashes())
	}
	fl2 := New(65, 3)
	if fl2.Bits() != 128 {
		t.Fatalf("bits not rounded to word multiple: %d", fl2.Bits())
	}
	fl3 := NewForCapacity(-5, 2.0)
	if fl3.Bits() == 0 || fl3.Hashes() < 1 {
		t.Fatal("NewForCapacity with junk args produced unusable filter")
	}
}

func TestUnionContainsBoth(t *testing.T) {
	a := New(2048, 4)
	b := New(2048, 4)
	a.Add(1)
	a.Add(2)
	b.Add(3)
	if err := a.Union(b); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{1, 2, 3} {
		if !a.Contains(k) {
			t.Fatalf("union missing key %d", k)
		}
	}
}

func TestUnionGeometryMismatch(t *testing.T) {
	a := New(2048, 4)
	if err := a.Union(New(1024, 4)); err == nil {
		t.Fatal("union with different bit count accepted")
	}
	if err := a.Union(New(2048, 3)); err == nil {
		t.Fatal("union with different hash count accepted")
	}
	if err := a.Union(nil); err == nil {
		t.Fatal("union with nil accepted")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := New(1024, 3)
	a.Add(7)
	c := a.Clone()
	c.Add(9)
	if !c.Contains(7) || !c.Contains(9) {
		t.Fatal("clone lost keys")
	}
	if a.Contains(9) && a.FillRatio() == c.FillRatio() {
		t.Fatal("mutating clone affected original")
	}
	if a.ApproxCount() != 1 || c.ApproxCount() != 2 {
		t.Fatalf("counts: a=%d c=%d", a.ApproxCount(), c.ApproxCount())
	}
}

func TestResetClears(t *testing.T) {
	a := New(1024, 3)
	for i := uint64(0); i < 50; i++ {
		a.Add(i)
	}
	a.Reset()
	if a.ApproxCount() != 0 || a.FillRatio() != 0 {
		t.Fatal("reset did not clear filter")
	}
	if a.Contains(5) {
		t.Fatal("reset filter still contains key")
	}
}

func TestFillRatioGrows(t *testing.T) {
	a := New(4096, 4)
	prev := a.FillRatio()
	if prev != 0 {
		t.Fatal("fresh filter fill ratio not 0")
	}
	for i := uint64(0); i < 200; i++ {
		a.Add(i)
	}
	if a.FillRatio() <= prev {
		t.Fatal("fill ratio did not grow")
	}
	if a.FillRatio() > 0.5 {
		t.Fatalf("fill ratio %.2f unexpectedly high for 200 keys in 4096 bits", a.FillRatio())
	}
}

func TestSizeBytes(t *testing.T) {
	a := New(4096, 4)
	if a.SizeBytes() != 512 {
		t.Fatalf("SizeBytes = %d, want 512", a.SizeBytes())
	}
}

func TestGobRoundTrip(t *testing.T) {
	f := NewForCapacity(100, 0.02)
	for k := uint64(0); k < 100; k += 3 {
		f.Add(k)
	}
	b, err := f.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var g Filter
	if err := g.GobDecode(b); err != nil {
		t.Fatal(err)
	}
	if g.Bits() != f.Bits() || g.Hashes() != f.Hashes() || g.ApproxCount() != f.ApproxCount() {
		t.Fatalf("geometry changed across gob: %d/%d/%d vs %d/%d/%d",
			g.Bits(), g.Hashes(), g.ApproxCount(), f.Bits(), f.Hashes(), f.ApproxCount())
	}
	for k := uint64(0); k < 100; k++ {
		if f.Contains(k) != g.Contains(k) {
			t.Fatalf("membership diverged at key %d", k)
		}
	}
}
