package content

import (
	"testing"

	"flowercdn/internal/cache"
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
