// Package content models the requestable content of the supported
// websites: object naming, per-peer stores with the push-delta
// accounting the maintenance protocol needs (paper Sec. 5.1: a content
// peer pushes updates "whenever the percentage of its changes reaches a
// threshold"), Bloom summaries for gossip, and Holders, a ring home's
// capped "which peers hold object k" list (flower's directory-index is
// its member view: each member's pushed keys).
//
// The paper assumes "a content peer has enough storage potential to
// avoid replacing its content through the experiment's duration" —
// NewStore reproduces that unbounded model exactly. NewStoreWith
// additionally bounds a store with a pluggable eviction policy
// (internal/cache), the seam behind the capacity-bounded scenarios the
// paper cannot express.
package content

import (
	"fmt"
	"slices"

	"flowercdn/internal/bloom"
	"flowercdn/internal/cache"
	"flowercdn/internal/runtime"
)

// SiteID identifies a website in W.
type SiteID int32

// ObjectID identifies one object within a website (0..ObjectsPerSite-1).
type ObjectID int32

// Key names one web object globally.
type Key struct {
	Site   SiteID
	Object ObjectID
}

// Uint64 packs the key for hashing, Bloom membership and eviction-
// policy bookkeeping.
func (k Key) Uint64() uint64 {
	return uint64(uint32(k.Site))<<32 | uint64(uint32(k.Object))
}

// KeyFromUint64 unpacks a key packed by Key.Uint64.
func KeyFromUint64(u uint64) Key {
	return Key{Site: SiteID(int32(uint32(u >> 32))), Object: ObjectID(int32(uint32(u)))}
}

// String renders "site/object".
func (k Key) String() string { return fmt.Sprintf("%d/%d", k.Site, k.Object) }

// Catalog describes the universe of content: |W| websites with a fixed
// number of requestable, cacheable objects each (Table 1: 100 websites,
// 500 objects per site).
type Catalog struct {
	sites          int
	objectsPerSite int
}

// NewCatalog validates and builds a catalog.
func NewCatalog(sites, objectsPerSite int) (*Catalog, error) {
	if sites < 1 {
		return nil, fmt.Errorf("content: need at least 1 site, got %d", sites)
	}
	if objectsPerSite < 1 {
		return nil, fmt.Errorf("content: need at least 1 object per site, got %d", objectsPerSite)
	}
	return &Catalog{sites: sites, objectsPerSite: objectsPerSite}, nil
}

// Sites returns |W|.
func (c *Catalog) Sites() int { return c.sites }

// ObjectsPerSite returns the per-site object count.
func (c *Catalog) ObjectsPerSite() int { return c.objectsPerSite }

// Valid reports whether a key is inside the catalog.
func (c *Catalog) Valid(k Key) bool {
	return int(k.Site) >= 0 && int(k.Site) < c.sites &&
		int(k.Object) >= 0 && int(k.Object) < c.objectsPerSite
}

// Store is one peer's local content cache for the single website it is
// interested in, with the delta accounting used by the push protocol.
// The zero value is not usable; use NewStore (unbounded, the paper's
// model) or NewStoreWith (capacity-bounded by an eviction policy).
type Store struct {
	// have holds the cached keys packed (Key.Uint64) and sorted: 8
	// bytes per key against a map's several-times-larger buckets, which
	// is what makes 100k-node populations fit one process. Packed order
	// equals (site, object) order, so every iteration over the store is
	// deterministic for free.
	have  []uint64
	delta []Key // keys added since the last MarkPushed

	// summary is the interned Bloom filter of the current contents,
	// invalidated (set nil) on every membership change and rebuilt
	// lazily. It is shared with everyone Summary was handed to, so it
	// is never mutated in place — see Summary.
	summary *bloom.Filter

	// Eviction seam; all nil/zero on an unbounded store.
	policy  cache.Policy
	cost    func(Key) int64 // nil = unit cost (capacity in objects)
	onEvict func(Key)
	evicted uint64
}

// find returns the insertion index of packed key u and whether it is
// present.
func (s *Store) find(u uint64) (int, bool) {
	lo, hi := 0, len(s.have)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.have[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.have) && s.have[lo] == u
}

// StoreOptions configures a capacity-bounded store.
type StoreOptions struct {
	// Policy nominates eviction victims; nil means unbounded.
	Policy cache.Policy
	// Cost weighs each key against the policy's capacity; nil charges
	// one unit per object.
	Cost func(Key) int64
	// OnEvict observes every evicted key (metrics plumbing).
	OnEvict func(Key)
}

// NewStore returns an empty unbounded store.
func NewStore() *Store {
	return &Store{}
}

// NewStoreWith returns an empty store governed by the given options.
func NewStoreWith(o StoreOptions) *Store {
	s := NewStore()
	s.policy = o.Policy
	s.cost = o.Cost
	s.onEvict = o.OnEvict
	return s
}

// Bounded reports whether an eviction policy governs the store.
func (s *Store) Bounded() bool { return s.policy != nil }

// Evictions returns how many objects the policy has evicted so far.
func (s *Store) Evictions() uint64 { return s.evicted }

// Add records that the peer now caches k. It reports whether the key
// was new. Re-adding an existing key does not count as a change. On a
// bounded store the insertion may evict other keys — or k itself, when
// a single object exceeds the whole budget.
func (s *Store) Add(k Key) bool {
	u := k.Uint64()
	i, ok := s.find(u)
	if ok {
		return false
	}
	s.have = append(s.have, 0)
	copy(s.have[i+1:], s.have[i:])
	s.have[i] = u
	s.summary = nil
	s.delta = append(s.delta, k)
	if s.policy != nil {
		c := int64(1)
		if s.cost != nil {
			c = s.cost(k)
		}
		s.policy.OnAdd(k.Uint64(), c)
		s.evictOverCapacity()
	}
	return true
}

// evictOverCapacity drains the policy's victims until it reports the
// store back under capacity.
func (s *Store) evictOverCapacity() {
	for {
		v, ok := s.policy.Victim()
		if !ok {
			return
		}
		s.policy.Remove(v)
		k := KeyFromUint64(v)
		if i, ok := s.find(v); ok {
			s.have = append(s.have[:i], s.have[i+1:]...)
			s.summary = nil
		}
		// An evicted key must not be advertised by the next push: drop
		// it from the pending delta (linear, but deltas are short —
		// they flush at a fraction of the store size).
		for i, dk := range s.delta {
			if dk == k {
				s.delta = append(s.delta[:i], s.delta[i+1:]...)
				break
			}
		}
		s.evicted++
		if s.onEvict != nil {
			s.onEvict(k)
		}
	}
}

// Has reports whether the peer caches k. On a bounded store a
// successful lookup counts as a touch (recency/frequency signal for
// the eviction policy) — both serving a fetch and skipping an
// already-cached object keep that object warm.
func (s *Store) Has(k Key) bool {
	_, ok := s.find(k.Uint64())
	if ok && s.policy != nil {
		s.policy.OnHit(k.Uint64())
	}
	return ok
}

// Len returns the number of cached objects.
func (s *Store) Len() int { return len(s.have) }

// Keys returns all cached keys in deterministic (sorted) order.
func (s *Store) Keys() []Key {
	out := make([]Key, 0, len(s.have))
	for _, u := range s.have {
		out = append(out, KeyFromUint64(u))
	}
	return out
}

// PendingChanges returns how many keys were added since the last push.
func (s *Store) PendingChanges() int { return len(s.delta) }

// ChangedFraction is the push trigger from Sec. 5.1: the number of
// changes since the last push divided by the current store size. A
// brand-new peer's first object yields 1.0, so it pushes immediately;
// thereafter pushes happen roughly each time the store grows by the
// threshold fraction.
func (s *Store) ChangedFraction() float64 {
	if len(s.have) == 0 {
		return 0
	}
	return float64(len(s.delta)) / float64(len(s.have))
}

// TakeDelta returns the keys accumulated since the last push and resets
// the delta, i.e. "the push happened". The returned slice is owned by
// the caller.
func (s *Store) TakeDelta() []Key {
	d := s.delta
	s.delta = nil
	return d
}

// SummaryFPRate is the Bloom false-positive target for gossip
// summaries. A false positive only costs one wasted fetch attempt
// followed by a directory fallback, so 2% is plenty.
const SummaryFPRate = 0.02

// Summary returns a Bloom filter of everything in the store, sized for
// the store's current population (minimum capacity keeps tiny stores
// from degenerate geometry). The filter is interned: repeated calls
// between membership changes return the same filter, so a peer
// gossiping its summary to its whole view ships one shared filter
// instead of re-building (and re-holding) one per contact. Callers and
// recipients must treat it as immutable — after a change the store
// builds a fresh filter rather than mutating the one already handed
// out, so held references stay consistent snapshots.
func (s *Store) Summary() *bloom.Filter {
	if s.summary != nil {
		return s.summary
	}
	capacity := len(s.have)
	if capacity < 16 {
		capacity = 16
	}
	f := bloom.NewForCapacity(capacity, SummaryFPRate)
	for _, u := range s.have {
		f.Add(u)
	}
	s.summary = f
	return f
}

// Holders is a ring home's "which peers hold object k": each key's
// distinct holders, oldest first. Bound > 0 keeps only the newest Bound
// per key. The zero value is an empty unbounded index, so it embeds by
// value; set Bound before the first Add. A key's list keeps its backing
// array when it empties, so a warm index allocates nothing on Add or
// Remove, at the bound included. Ranking is the caller's.
type Holders struct {
	Bound int
	m     map[Key][]runtime.NodeID
	n     int // keys with at least one holder
}

// Add records nid as a holder of k, evicting k's oldest holder at the
// bound. A known holder keeps its place.
func (h *Holders) Add(k Key, nid runtime.NodeID) {
	hs := h.m[k]
	switch {
	case slices.Contains(hs, nid):
		return
	case len(hs) == 0:
		if h.m == nil {
			h.m = make(map[Key][]runtime.NodeID)
		}
		h.n++
	case len(hs) == h.Bound:
		hs = hs[:copy(hs, hs[1:])]
	}
	h.m[k] = append(hs, nid)
}

// Remove forgets nid as a holder of k.
func (h *Holders) Remove(k Key, nid runtime.NodeID) {
	hs := h.m[k]
	if i := slices.Index(hs, nid); i >= 0 {
		h.m[k] = slices.Delete(hs, i, i+1)
		if len(hs) == 1 {
			h.n--
		}
	}
}

// Of returns k's holders, oldest first. The slice is the index's own:
// read it before the next Add or Remove, and never send it.
func (h *Holders) Of(k Key) []runtime.NodeID { return h.m[k] }

// Len returns how many keys have at least one holder.
func (h *Holders) Len() int { return h.n }
