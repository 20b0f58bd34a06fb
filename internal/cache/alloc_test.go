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
