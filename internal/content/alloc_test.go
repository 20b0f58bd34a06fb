package content

import (
	"testing"

	"flowercdn/internal/cache"
	"flowercdn/internal/runtime"
)

// TestBoundedAddAllocs pins the bounded-store Add path's steady-state
// allocation count at zero: the store's own bookkeeping (the packed
// sorted key slice, the push delta, the interned summary invalidation)
// stays off the heap once warm, and so does the LRU policy, whose
// recency list lives in a slab (internal/cache) — the container/list
// version cost two objects per admission.
func TestBoundedAddAllocs(t *testing.T) {
	pol, err := cache.New("lru", 8)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStoreWith(StoreOptions{Policy: pol})
	keys := make([]Key, 32)
	for i := range keys {
		keys[i] = Key{Site: SiteID(i % 4), Object: ObjectID(i)}
	}
	for i := 0; i < 256; i++ { // warm up: slices reach steady capacity
		s.Add(keys[i%len(keys)])
	}
	i := 256
	avg := testing.AllocsPerRun(200, func() {
		s.Add(keys[i%len(keys)])
		i++
	})
	// Every admission is a new key here (the cycle is 4x the capacity,
	// so re-adds never hit) and evicts another.
	if avg != 0 {
		t.Errorf("bounded Add allocates %.2f objects per admission, want 0", avg)
	}
	if s.Len() != 8 || s.Evictions() == 0 {
		t.Errorf("%d residents after %d evictions, want 8 and some", s.Len(), s.Evictions())
	}
}

// TestHoldersAllocs pins the holder index at zero allocations once warm:
// a key emptied by Remove keeps its list for the next Add, and Add at
// the bound shifts in place — re-slicing the oldest away instead drops
// capacity and reallocates every few insertions.
func TestHoldersAllocs(t *testing.T) {
	var h Holders
	k := Key{Site: 1, Object: 2}
	h.Add(k, 1)
	h.Remove(k, 1)
	if avg := testing.AllocsPerRun(200, func() {
		h.Add(k, 1)
		h.Remove(k, 1)
	}); avg != 0 {
		t.Errorf("warm Add+Remove allocates %.2f objects, want 0", avg)
	}
	capped := Holders{Bound: 4}
	for i := 0; i < 4; i++ {
		capped.Add(k, runtime.NodeID(i))
	}
	// A hundred Adds per run: AllocsPerRun truncates its average, and a
	// list that reallocates every few insertions averages below one.
	nid := runtime.NodeID(4)
	if avg := testing.AllocsPerRun(50, func() {
		for range 100 {
			capped.Add(k, nid)
			nid++
		}
	}); avg != 0 {
		t.Errorf("100 Adds at the bound allocate %.0f objects, want 0", avg)
	}
}
