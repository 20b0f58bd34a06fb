package cache

import (
	"container/list"
	"testing"

	"flowercdn/internal/rnd"
)

// listLRU is the container/list policy the slab lruPolicy replaced, kept
// as the reference for the model test below: an intrusive recency list
// of heap elements plus a key → element map.
type listLRU struct {
	capacity int64
	used     int64
	order    *list.List // front = most recently used
	items    map[uint64]*list.Element
}

type listLRUEntry struct {
	key  uint64
	cost int64
}

func newListLRU(capacity int64) *listLRU {
	return &listLRU{capacity: capacity, order: list.New(), items: make(map[uint64]*list.Element)}
}

func (p *listLRU) OnAdd(key uint64, cost int64) {
	p.items[key] = p.order.PushFront(listLRUEntry{key: key, cost: cost})
	p.used += cost
}

func (p *listLRU) OnHit(key uint64) {
	if el, ok := p.items[key]; ok {
		p.order.MoveToFront(el)
	}
}

func (p *listLRU) Victim() (uint64, bool) {
	if p.capacity <= 0 || p.used <= p.capacity {
		return 0, false
	}
	return p.order.Back().Value.(listLRUEntry).key, true
}

func (p *listLRU) Remove(key uint64) {
	el, ok := p.items[key]
	if !ok {
		return
	}
	p.used -= el.Value.(listLRUEntry).cost
	p.order.Remove(el)
	delete(p.items, key)
}

func (p *listLRU) Len() int { return len(p.items) }

// TestSlabLRUMatchesListLRU drives the slab policy and the list policy
// it replaced through the same random histories — adds of untracked
// keys with random costs, hits and removes of tracked and untracked
// keys, victim drains the way content.Store runs them and lone Victim
// reads — and requires the same answer at every step: the same victims
// in the same order and the same Len. Small capacities and a small key
// space keep the slab's free chain churning; capacity 0 is unbounded.
func TestSlabLRUMatchesListLRU(t *testing.T) {
	const steps = 5000
	for seed := uint64(1); seed <= 24; seed++ {
		rng := rnd.New(seed)
		capacity := int64(rng.Intn(40)) // 0 = unbounded
		keys := uint64(8 + rng.Intn(120))
		slab, ref := newLRU(capacity), newListLRU(capacity)
		tracked := map[uint64]bool{}
		victims, peak := 0, 0
		sameVictim := func(step int) (uint64, bool) {
			v, ok := slab.Victim()
			wv, wok := ref.Victim()
			if v != wv || ok != wok {
				t.Fatalf("seed %d step %d: Victim = (%d, %v), list policy says (%d, %v)", seed, step, v, ok, wv, wok)
			}
			return v, ok
		}
		for step := 0; step < steps; step++ {
			k := rng.Uint64() % keys
			switch op := rng.Intn(10); {
			case op < 5:
				if tracked[k] {
					slab.OnHit(k)
					ref.OnHit(k)
					break
				}
				cost := int64(1 + rng.Intn(3))
				slab.OnAdd(k, cost)
				ref.OnAdd(k, cost)
				tracked[k] = true
				peak = max(peak, slab.Len())
				for {
					v, ok := sameVictim(step)
					if !ok {
						break
					}
					slab.Remove(v)
					ref.Remove(v)
					delete(tracked, v)
					victims++
				}
			case op < 8:
				slab.OnHit(k) // untracked keys included: a no-op on both
				ref.OnHit(k)
			case op < 9:
				slab.Remove(k)
				ref.Remove(k)
				delete(tracked, k)
			default:
				sameVictim(step)
			}
			if slab.Len() != ref.Len() || slab.Len() != len(tracked) {
				t.Fatalf("seed %d step %d: Len = %d, list policy %d, tracked %d", seed, step, slab.Len(), ref.Len(), len(tracked))
			}
			if slab.used != ref.used {
				t.Fatalf("seed %d step %d: used = %d, list policy %d", seed, step, slab.used, ref.used)
			}
		}
		if capacity > 0 && victims == 0 {
			t.Errorf("seed %d: capacity %d over %d keys never evicted", seed, capacity, keys)
		}
		if len(slab.nodes) > peak+1 {
			t.Errorf("seed %d: slab grew to %d nodes for at most %d residents", seed, len(slab.nodes), peak)
		}
	}
}

// TestSlabLRUReusesNodes pins the slab's size: however long a bounded
// policy runs, it holds one node per peak resident plus the sentinel.
func TestSlabLRUReusesNodes(t *testing.T) {
	p := newLRU(8)
	for k := uint64(0); k < 10000; k++ {
		p.OnAdd(k, 1)
		drain(t, p)
	}
	if p.Len() != 8 || len(p.nodes) != 1+9 {
		t.Fatalf("after 10000 admissions at capacity 8: %d residents in %d nodes, want 8 in 10", p.Len(), len(p.nodes))
	}
}
