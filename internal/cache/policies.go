package cache

// policies is every policy, in listing order. All of them treat
// capacity <= 0 as unbounded and break victim ties deterministically by
// smallest key, so bounded runs replay bit-identically.
var policies = []struct {
	info    Info
	factory Factory
}{
	{Info{
		Name:    PolicyNone,
		Summary: "unbounded store — the paper's storage model (never evicts)",
	}, func(int64) Policy { return &nonePolicy{} }},
	{Info{
		Name:    "lfu",
		Summary: "least-frequently-used eviction (ties: smallest key), capacity in objects",
	}, func(capacity int64) Policy {
		return &lfuPolicy{capacity: capacity, items: make(map[uint64]*lfuEntry)}
	}},
	{Info{
		Name:    "lru",
		Summary: "least-recently-used eviction, capacity in objects",
	}, func(capacity int64) Policy { return newLRU(capacity) }},
	{Info{
		Name:     "size-aware",
		Summary:  "largest-object-first eviction over a byte budget (Zipf-sized objects)",
		ByteCost: true,
	}, func(capacity int64) Policy {
		return &sizePolicy{capacity: capacity, items: make(map[uint64]int64)}
	}},
}

// nonePolicy tracks nothing but the resident count and never evicts —
// the unbounded paper model behind the "none" name.
type nonePolicy struct{ n int }

func (p *nonePolicy) OnAdd(uint64, int64)    { p.n++ }
func (p *nonePolicy) OnHit(uint64)           {}
func (p *nonePolicy) Victim() (uint64, bool) { return 0, false }
func (p *nonePolicy) Remove(uint64)          { p.n-- }
func (p *nonePolicy) Len() int               { return p.n }

// lruPolicy evicts the least-recently-touched key. O(1) everywhere and,
// once the slab has grown to the store's working size, no allocation
// anywhere: the recency list is threaded through one slice of nodes by
// index instead of through heap elements, so admitting, touching and
// evicting a key move four int32 links. A bounded store evicts on nearly
// every admission, which made the two objects container/list cost per
// PushFront the largest single allocator of a busy petal.
//
// nodes[0] is the list's sentinel: its next is the most recently used
// node, its prev the least. Removed nodes are chained through next from
// free (0 = none) and handed out again before the slab grows, so the
// slab never holds more than the peak resident count plus one.
type lruPolicy struct {
	capacity int64
	used     int64
	nodes    []lruNode
	free     int32
	items    map[uint64]int32
}

type lruNode struct {
	key        uint64
	cost       int64
	prev, next int32
}

// maxLRUPresize caps the slab a fresh LRU reserves up front, so a huge
// capacity costs a peer nothing until its store fills.
const maxLRUPresize = 1024

// newLRU presizes the slab and the map for a bounded store's peak, so
// filling it never regrows them: the sentinel, capacity residents and
// the admission its eviction follows (the store is count-bounded: its
// costs are 1).
func newLRU(capacity int64) *lruPolicy {
	room := int64(1)
	if capacity > 0 {
		room = min(capacity+2, maxLRUPresize)
	}
	return &lruPolicy{
		capacity: capacity,
		nodes:    make([]lruNode, 1, room), // the sentinel, linked to itself
		items:    make(map[uint64]int32, room-1),
	}
}

// unlink takes node i out of the recency list.
func (p *lruPolicy) unlink(i int32) {
	n := &p.nodes[i]
	p.nodes[n.prev].next = n.next
	p.nodes[n.next].prev = n.prev
}

// pushFront makes node i the most recently used.
func (p *lruPolicy) pushFront(i int32) {
	first := p.nodes[0].next
	p.nodes[i].prev, p.nodes[i].next = 0, first
	p.nodes[first].prev = i
	p.nodes[0].next = i
}

func (p *lruPolicy) OnAdd(key uint64, cost int64) {
	i := p.free
	if i != 0 {
		p.free = p.nodes[i].next
	} else {
		p.nodes = append(p.nodes, lruNode{})
		i = int32(len(p.nodes) - 1)
	}
	p.nodes[i].key, p.nodes[i].cost = key, cost
	p.pushFront(i)
	p.items[key] = i
	p.used += cost
}

func (p *lruPolicy) OnHit(key uint64) {
	if i, ok := p.items[key]; ok {
		p.unlink(i)
		p.pushFront(i)
	}
}

func (p *lruPolicy) Victim() (uint64, bool) {
	if p.capacity <= 0 || p.used <= p.capacity {
		return 0, false
	}
	return p.nodes[p.nodes[0].prev].key, true
}

func (p *lruPolicy) Remove(key uint64) {
	i, ok := p.items[key]
	if !ok {
		return
	}
	p.used -= p.nodes[i].cost
	p.unlink(i)
	p.nodes[i].next = p.free
	p.free = i
	delete(p.items, key)
}

func (p *lruPolicy) Len() int { return len(p.items) }

// lfuPolicy evicts the least-frequently-hit key (an OnAdd counts as
// the first access), breaking frequency ties by smallest key. Victim
// is an O(n) scan — per-peer stores are small (tens to hundreds of
// objects), and the scan runs only while over capacity.
type lfuPolicy struct {
	capacity int64
	used     int64
	items    map[uint64]*lfuEntry
}

type lfuEntry struct {
	freq int64
	cost int64
}

func (p *lfuPolicy) OnAdd(key uint64, cost int64) {
	p.items[key] = &lfuEntry{freq: 1, cost: cost}
	p.used += cost
}

func (p *lfuPolicy) OnHit(key uint64) {
	if e, ok := p.items[key]; ok {
		e.freq++
	}
}

func (p *lfuPolicy) Victim() (uint64, bool) {
	if p.capacity <= 0 || p.used <= p.capacity {
		return 0, false
	}
	var victim uint64
	var vfreq int64 = -1
	for k, e := range p.items {
		if vfreq < 0 || e.freq < vfreq || (e.freq == vfreq && k < victim) {
			victim, vfreq = k, e.freq
		}
	}
	return victim, vfreq >= 0
}

func (p *lfuPolicy) Remove(key uint64) {
	e, ok := p.items[key]
	if !ok {
		return
	}
	p.used -= e.cost
	delete(p.items, key)
}

func (p *lfuPolicy) Len() int { return len(p.items) }

// sizePolicy evicts the largest object first over a byte budget
// (ties: smallest key). Dropping the biggest objects keeps the most
// distinct objects resident, which is what hit ratio rewards when
// every object counts equally toward it.
type sizePolicy struct {
	capacity int64
	used     int64
	items    map[uint64]int64 // key → byte cost
}

func (p *sizePolicy) OnAdd(key uint64, cost int64) {
	p.items[key] = cost
	p.used += cost
}

func (p *sizePolicy) OnHit(uint64) {}

func (p *sizePolicy) Victim() (uint64, bool) {
	if p.capacity <= 0 || p.used <= p.capacity {
		return 0, false
	}
	var victim uint64
	var vcost int64 = -1
	for k, c := range p.items {
		if c > vcost || (c == vcost && k < victim) {
			victim, vcost = k, c
		}
	}
	return victim, vcost >= 0
}

func (p *sizePolicy) Remove(key uint64) {
	c, ok := p.items[key]
	if !ok {
		return
	}
	p.used -= c
	delete(p.items, key)
}

func (p *sizePolicy) Len() int { return len(p.items) }
