package cache

import (
	"slices"
	"testing"
)

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		info, ok := Lookup(name)
		if !ok || info.Name != name || info.Summary == "" {
			t.Fatalf("bad info for %q: %+v", name, info)
		}
		p, err := New(name, 10)
		if err != nil || p == nil {
			t.Fatalf("New(%q) = %v, %v", name, p, err)
		}
	}
	if _, ok := Lookup("bogus"); ok {
		t.Fatal("bogus policy resolves")
	}
	if _, err := New("bogus", 1); err == nil {
		t.Fatal("New accepted an unknown policy")
	}
	// The list is the promise: these four, "none" first. Adding a policy
	// means extending this line on purpose.
	if got, want := Names(), []string{"none", "lfu", "lru", "size-aware"}; !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	info, _ := Lookup("size-aware")
	if !info.ByteCost {
		t.Fatal("size-aware must be byte-cost")
	}
	if info, _ := Lookup("lru"); info.ByteCost {
		t.Fatal("lru must be count-bounded")
	}
}

// drain mimics the store's eviction loop: victims are removed until
// the policy reports itself under capacity.
func drain(t *testing.T, p Policy) []uint64 {
	t.Helper()
	var out []uint64
	for i := 0; ; i++ {
		if i > 1<<16 {
			t.Fatal("Victim never settled — eviction loop does not terminate")
		}
		v, ok := p.Victim()
		if !ok {
			return out
		}
		p.Remove(v)
		out = append(out, v)
	}
}

func TestNoneNeverEvicts(t *testing.T) {
	p, _ := New("none", 1)
	for k := uint64(0); k < 1000; k++ {
		p.OnAdd(k, 1<<20)
		if _, ok := p.Victim(); ok {
			t.Fatal("none nominated a victim")
		}
	}
	if p.Len() != 1000 {
		t.Fatalf("none Len = %d, want 1000", p.Len())
	}
	p.Remove(5)
	if p.Len() != 999 {
		t.Fatalf("none Len after Remove = %d", p.Len())
	}
}

func TestLRUEvictsLeastRecentlyTouched(t *testing.T) {
	p, _ := New("lru", 3)
	p.OnAdd(1, 1)
	p.OnAdd(2, 1)
	p.OnAdd(3, 1)
	p.OnHit(1) // 1 is now warmest; 2 coldest
	p.OnAdd(4, 1)
	if vs := drain(t, p); len(vs) != 1 || vs[0] != 2 {
		t.Fatalf("LRU evicted %v, want [2]", vs)
	}
	p.OnAdd(5, 1) // state: 3, 1, 4, 5 → 3 coldest
	if vs := drain(t, p); len(vs) != 1 || vs[0] != 3 {
		t.Fatalf("LRU evicted %v, want [3]", vs)
	}
	if p.Len() != 3 {
		t.Fatalf("LRU Len = %d, want 3", p.Len())
	}
}

func TestLFUEvictsLeastFrequentTieByKey(t *testing.T) {
	p, _ := New("lfu", 3)
	p.OnAdd(10, 1)
	p.OnAdd(20, 1)
	p.OnAdd(30, 1)
	p.OnHit(10)
	p.OnHit(10)
	p.OnHit(30)
	// freqs: 10→3, 20→1, 30→2
	p.OnAdd(40, 1)
	if vs := drain(t, p); len(vs) != 1 || vs[0] != 20 {
		t.Fatalf("LFU evicted %v, want [20]", vs)
	}
	// freqs now: 10→3, 30→2, 40→1; add another fresh key → tie between
	// 40 and 50 at freq 1, smaller key 40 goes.
	p.OnAdd(50, 1)
	if vs := drain(t, p); len(vs) != 1 || vs[0] != 40 {
		t.Fatalf("LFU tie-break evicted %v, want [40]", vs)
	}
}

func TestSizeAwareEvictsLargestFirst(t *testing.T) {
	p, _ := New("size-aware", 100)
	p.OnAdd(1, 40)
	p.OnAdd(2, 50)
	p.OnAdd(3, 30) // used 120 > 100 → evict 2 (largest)
	if vs := drain(t, p); len(vs) != 1 || vs[0] != 2 {
		t.Fatalf("size-aware evicted %v, want [2]", vs)
	}
	p.OnAdd(4, 40) // used 110 → largest is a tie 40/40 between 1 and 4 → key 1
	if vs := drain(t, p); len(vs) != 1 || vs[0] != 1 {
		t.Fatalf("size-aware tie evicted %v, want [1]", vs)
	}
}

func TestSizeAwareOversizedObjectEvictsItself(t *testing.T) {
	p, _ := New("size-aware", 100)
	p.OnAdd(7, 1000)
	vs := drain(t, p)
	if len(vs) != 1 || vs[0] != 7 {
		t.Fatalf("oversized add evicted %v, want [7]", vs)
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d after self-eviction", p.Len())
	}
}

func TestZeroCapacityMeansUnbounded(t *testing.T) {
	for _, name := range []string{"lru", "lfu", "size-aware"} {
		p, _ := New(name, 0)
		for k := uint64(0); k < 100; k++ {
			p.OnAdd(k, 100)
		}
		if _, ok := p.Victim(); ok {
			t.Fatalf("%s with capacity 0 nominated a victim", name)
		}
	}
}
