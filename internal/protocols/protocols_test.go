package protocols

import (
	"slices"
	"testing"
)

// TestListIsPinned holds the list to what it promises: six unique
// names in the order flowersim -protocols prints and make
// fingerprint-check walks, and every one of them in the comparison
// grids but the origin-only floor. Adding, dropping or reordering a
// protocol means editing this test on purpose.
func TestListIsPinned(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range All {
		if seen[d.Info.Name] {
			t.Errorf("protocol %q listed twice", d.Info.Name)
		}
		seen[d.Info.Name] = true
		if d.Info.Summary == "" || d.Lower == nil {
			t.Errorf("protocol %q has no summary or no lowering", d.Info.Name)
		}
		if got, ok := Lookup(d.Info.Name); !ok || got.Info != d.Info {
			t.Errorf("Lookup(%q) = %+v, %v", d.Info.Name, got.Info, ok)
		}
	}
	want := []string{"flower", "petalup", "squirrel", "chord-global", "koorde-global", "origin-only"}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	if got := CompareNames(); !slices.Equal(got, want[:5]) {
		t.Fatalf("CompareNames() = %v, want %v", got, want[:5])
	}
	if _, ok := Lookup("bogus"); ok {
		t.Fatal("an unknown name resolves")
	}
}
