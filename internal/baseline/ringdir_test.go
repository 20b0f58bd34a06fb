package baseline

import (
	"slices"
	"testing"

	"flowercdn/internal/content"
	"flowercdn/internal/runtime"
)

// TestAddProviderKeepsNewestWithinCap pins the directory entry's
// eviction order, which no trace shows: the newest providers stay and a
// known one is not re-added. That the cap bounds what a home hands out,
// under each protocol's own option key, is internal/squirrel's
// TestDelegateCapBounded.
func TestAddProviderKeepsNewestWithinCap(t *testing.T) {
	p := &peer{d: &ringDriver{cfg: ringConfig{indexCap: 4}}, index: map[content.Key][]runtime.NodeID{}}
	k := content.Key{Site: 0, Object: 1}
	for i := 0; i < 20; i++ {
		p.addProvider(k, runtime.NodeID(100+i))
	}
	want := []runtime.NodeID{116, 117, 118, 119}
	if !slices.Equal(p.index[k], want) {
		t.Fatalf("entry holds %v, want the newest four %v", p.index[k], want)
	}
	p.addProvider(k, 117)
	if !slices.Equal(p.index[k], want) {
		t.Fatalf("re-adding a known provider changed the entry to %v", p.index[k])
	}
}
