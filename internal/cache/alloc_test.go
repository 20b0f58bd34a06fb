package cache

import "testing"

// TestAllocPins pins the LRU policy's steady state: at capacity, an
// admission with the eviction it forces (OnAdd, Victim, Remove) and a
// touch (OnHit) move links inside the slab and allocate nothing. The
// container/list policy this one replaced read 2 and 0 here.
func TestAllocPins(t *testing.T) {
	p, err := New("lru", 40)
	if err != nil {
		t.Fatal(err)
	}
	next := uint64(0)
	admit := func() {
		p.OnAdd(next, 1)
		next++
		for {
			v, ok := p.Victim()
			if !ok {
				return
			}
			p.Remove(v)
		}
	}
	for i := 0; i < 1000; i++ {
		admit() // the slab and the map reach their size
	}
	if got := testing.AllocsPerRun(1000, admit); got != 0 {
		t.Errorf("an admission at capacity allocates %v objects, want 0", got)
	}
	if p.Len() != 40 {
		t.Fatalf("%d residents at capacity 40", p.Len())
	}
	hit := next - 40
	if got := testing.AllocsPerRun(1000, func() {
		p.OnHit(hit)
		if hit++; hit == next {
			hit = next - 40
		}
	}); got != 0 {
		t.Errorf("a touch allocates %v objects, want 0", got)
	}
	if p.Len() != 40 {
		t.Errorf("touches changed the population: %d residents", p.Len())
	}
}

// TestLRUFillAllocPins pins the presized slab: filling a fresh
// capacity-40 LRU from empty, through the first admission that forces an
// eviction, allocates exactly what building the policy does, so the fill
// itself regrows neither the slab nor the map (a slab grown by append
// read 17 objects here against 3 for the build). A huge capacity
// reserves no more up front than the clamp.
func TestLRUFillAllocPins(t *testing.T) {
	var p Policy
	build := func() { p, _ = New("lru", 40) }
	fill := func() {
		build()
		for k := uint64(0); k <= 40; k++ {
			p.OnAdd(k, 1)
			if v, ok := p.Victim(); ok {
				p.Remove(v)
			}
		}
	}
	built := testing.AllocsPerRun(100, build)
	if got := testing.AllocsPerRun(100, fill); got != built {
		t.Errorf("building and filling a capacity-40 LRU allocates %v objects, building it %v: the fill regrew the slab or the map", got, built)
	}
	if built > 8 {
		t.Errorf("building a capacity-40 LRU allocates %v objects, want a handful", built)
	}
	if p.Len() != 40 {
		t.Fatalf("%d residents at capacity 40", p.Len())
	}
	if got := cap(p.(*lruPolicy).nodes); got != 42 {
		t.Errorf("a capacity-40 slab has room for %d nodes, want 42", got)
	}
	huge, err := New("lru", 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if got := cap(huge.(*lruPolicy).nodes); got != maxLRUPresize {
		t.Errorf("a capacity-2^40 slab has room for %d nodes, want the clamp %d", got, maxLRUPresize)
	}
}
