// Package gossip implements the petal membership protocol: a
// Cyclon-inspired (Voulgaris et al. [17]) age-based partial-view
// shuffle. Content peers of a petal "periodically exchange contacts
// (addresses of other known content peers) and summaries of their
// stored content" (paper Sec. 3.1); those summaries — and Flower-CDN's
// dir-info records — ride along as opaque per-contact metadata.
//
// Deviations from strict Cyclon, matching the paper's description:
//
//   - the view is unbounded by default ("we do not limit the view size
//     of a content peer and allow it to grow with the size of its
//     petal"); it is bounded naturally because a contact found
//     unavailable during a shuffle is removed;
//   - a successful shuffle resets the target's age to zero instead of
//     rotating it out, since the exchange just proved it alive.
package gossip

import (
	"errors"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"fmt"
)

// Entry is one contact in a peer's partial view.
type Entry struct {
	// Peer is the contact's network address.
	Peer runtime.NodeID
	// Age counts gossip periods since this contact was last known
	// fresh; higher is staler.
	Age int
	// Meta is application state describing the contact (for Flower-CDN:
	// its content summary and dir-info). It is shipped verbatim in
	// shuffles.
	Meta any
}

// Config tunes the protocol.
type Config struct {
	// Period between shuffles initiated by this peer (Table 1: 1 hour).
	Period int64
	// ShuffleSize bounds the number of contacts shipped per exchange.
	ShuffleSize int
	// MaxView bounds the view; 0 means unbounded (the paper's setting).
	MaxView int
	// RPCTimeout bounds a shuffle exchange; a timeout evicts the target.
	RPCTimeout int64
}

// DefaultConfig returns the paper's gossip parameters.
func DefaultConfig() Config {
	return Config{
		Period:      1 * runtime.Hour,
		ShuffleSize: 6,
		MaxView:     0,
		RPCTimeout:  4 * runtime.Second,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Period <= 0 {
		return errors.New("gossip: period must be positive")
	}
	if c.ShuffleSize < 1 {
		return errors.New("gossip: shuffle size must be at least 1")
	}
	if c.MaxView < 0 {
		return errors.New("gossip: negative max view")
	}
	if c.RPCTimeout <= 0 {
		return errors.New("gossip: rpc timeout must be positive")
	}
	return nil
}

// App is the protocol's hook into the owning peer.
type App interface {
	// SelfDescriptor returns the metadata describing this peer that
	// shuffles ship to others (content summary + dir-info).
	SelfDescriptor() any
	// OnExchange runs after entries arrive from peer (both at the
	// initiator, with the response, and at the responder, with the
	// request). The application inspects metadata for its own
	// side-protocols before/independently of the view merge.
	OnExchange(peer runtime.NodeID, received []Entry)
	// OnContactDead runs when a shuffle target timed out and was
	// evicted from the view.
	OnContactDead(peer runtime.NodeID)
}

func init() {
	// Shuffle exchanges cross process boundaries on the socket backend.
	runtime.RegisterWireType(shuffleReq{}, shuffleResp{})
}

// shuffleReq/shuffleResp are the exchange RPC.
type shuffleReq struct {
	From    runtime.NodeID
	Entries []Entry
}

type shuffleResp struct {
	Entries []Entry
}

// WireBytes estimates shuffle traffic: contacts are small, but metadata
// (Bloom summaries) dominates.
func (r shuffleReq) WireBytes() int  { return 32 + len(r.Entries)*192 }
func (r shuffleResp) WireBytes() int { return 16 + len(r.Entries)*192 }

// Protocol is one peer's gossip state. Like everything in the
// simulation it is single-goroutine.
type Protocol struct {
	cfg Config
	net runtime.Net
	eng runtime.Clock
	rng *rnd.RNG
	me  runtime.NodeID
	app App

	// view holds the contacts in insertion order — the deterministic
	// iteration order everything below relies on — and idx maps a peer
	// to its position in it. One flat slice instead of an order slice
	// plus a map of individually-allocated entries: views grow with
	// petal size, and at 100k-node populations the per-entry pointer
	// and bucket overhead is most of a peer's footprint.
	view []Entry
	idx  map[runtime.NodeID]int32

	timer   runtime.Ticker
	stopped bool

	shuffles  uint64
	evictions uint64
}

// New builds the protocol for the peer at me.
func New(cfg Config, net runtime.Net, rng *rnd.RNG, me runtime.NodeID, app App) (*Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if app == nil {
		return nil, errors.New("gossip: nil app")
	}
	return &Protocol{
		cfg: cfg,
		net: net,
		eng: net.Clock(),
		rng: rng,
		me:  me,
		app: app,
		idx: make(map[runtime.NodeID]int32),
	}, nil
}

// Start schedules periodic shuffles, de-phased by a random offset so
// petal members do not fire in lockstep.
func (g *Protocol) Start() {
	if g.timer != nil {
		return
	}
	g.timer = g.eng.Every(g.rng.UniformDuration(0, g.cfg.Period), g.cfg.Period, g.Tick)
}

// Stop cancels periodic shuffles.
func (g *Protocol) Stop() {
	g.stopped = true
	if g.timer != nil {
		g.timer.Cancel()
	}
}

// Size returns the current view size.
func (g *Protocol) Size() int { return len(g.view) }

// Contains reports whether peer is in the view.
func (g *Protocol) Contains(peer runtime.NodeID) bool {
	_, ok := g.idx[peer]
	return ok
}

// Entries returns a copy of the view in insertion order.
func (g *Protocol) Entries() []Entry {
	out := make([]Entry, len(g.view))
	copy(out, g.view)
	return out
}

// View returns the live view in insertion order, valid until the next
// protocol call. Read-only: callers must neither mutate nor retain it.
// This is the allocation-free variant of Entries for per-query scans.
func (g *Protocol) View() []Entry { return g.view }

// Meta returns the stored metadata for peer, or nil.
func (g *Protocol) Meta(peer runtime.NodeID) any {
	if i, ok := g.idx[peer]; ok {
		return g.view[i].Meta
	}
	return nil
}

// Shuffles returns how many exchanges this peer initiated.
func (g *Protocol) Shuffles() uint64 { return g.shuffles }

// Evictions returns how many contacts were evicted as dead.
func (g *Protocol) Evictions() uint64 { return g.evictions }

// AddContact inserts or refreshes a contact with age 0. Inserting
// oneself is ignored.
func (g *Protocol) AddContact(peer runtime.NodeID, meta any) {
	g.insert(Entry{Peer: peer, Age: 0, Meta: meta})
}

// UpdateMeta replaces the metadata of an existing contact; unknown
// peers are ignored (use AddContact to insert).
func (g *Protocol) UpdateMeta(peer runtime.NodeID, meta any) {
	if i, ok := g.idx[peer]; ok {
		g.view[i].Meta = meta
	}
}

// removeAt deletes the view entry at position i, preserving insertion
// order (in place: shift the tail and re-index it).
func (g *Protocol) removeAt(i int) {
	delete(g.idx, g.view[i].Peer)
	copy(g.view[i:], g.view[i+1:])
	g.view[len(g.view)-1] = Entry{} // release the Meta reference
	g.view = g.view[:len(g.view)-1]
	for j := i; j < len(g.view); j++ {
		g.idx[g.view[j].Peer] = int32(j)
	}
}

// RemoveContact drops a contact (e.g. the application learned it died
// through another channel).
func (g *Protocol) RemoveContact(peer runtime.NodeID) {
	if i, ok := g.idx[peer]; ok {
		g.removeAt(int(i))
	}
}

// insert merges one entry: unknown peers are appended (evicting the
// oldest entry if MaxView is exceeded); known peers keep whichever copy
// is younger.
func (g *Protocol) insert(e Entry) {
	if e.Peer == g.me || e.Peer == runtime.None {
		return
	}
	if i, ok := g.idx[e.Peer]; ok {
		cur := &g.view[i]
		if e.Age <= cur.Age {
			cur.Age = e.Age
			if e.Meta != nil {
				cur.Meta = e.Meta
			}
		}
		return
	}
	if g.cfg.MaxView > 0 && len(g.view) >= g.cfg.MaxView {
		g.evictOldest()
	}
	g.idx[e.Peer] = int32(len(g.view))
	g.view = append(g.view, e)
}

func (g *Protocol) evictOldest() {
	if len(g.view) == 0 {
		return
	}
	idx := 0
	for i := range g.view {
		if g.view[i].Age > g.view[idx].Age {
			idx = i
		}
	}
	g.removeAt(idx)
}

// Tick runs one gossip round: age the view, pick the oldest contact,
// and exchange samples with it. Exposed so tests and protocols can
// force a round.
func (g *Protocol) Tick() {
	if g.stopped || len(g.view) == 0 {
		return
	}
	for i := range g.view {
		g.view[i].Age++
	}
	target := g.oldest()
	sample := g.sample(target, true)
	g.shuffles++
	g.net.Request(g.me, target, shuffleReq{From: g.me, Entries: sample}, g.cfg.RPCTimeout,
		func(resp any, err error) {
			if g.stopped {
				return
			}
			if err != nil {
				g.evictions++
				g.RemoveContact(target)
				g.app.OnContactDead(target)
				return
			}
			sr := resp.(shuffleResp)
			g.app.OnExchange(target, sr.Entries)
			for _, e := range sr.Entries {
				g.insert(e)
			}
			if i, ok := g.idx[target]; ok {
				g.view[i].Age = 0 // exchange proved it alive
			}
		})
}

func (g *Protocol) oldest() runtime.NodeID {
	best := 0
	for i := range g.view[1:] {
		if g.view[i+1].Age > g.view[best].Age {
			best = i + 1
		}
	}
	return g.view[best].Peer
}

// sample draws up to ShuffleSize entries: our own fresh descriptor plus
// random view entries, excluding the exchange partner.
func (g *Protocol) sample(exclude runtime.NodeID, includeSelf bool) []Entry {
	out := make([]Entry, 0, g.cfg.ShuffleSize)
	if includeSelf {
		out = append(out, Entry{Peer: g.me, Age: 0, Meta: g.app.SelfDescriptor()})
	}
	perm := g.rng.Perm(len(g.view))
	for _, i := range perm {
		if len(out) >= g.cfg.ShuffleSize {
			break
		}
		if g.view[i].Peer == exclude {
			continue
		}
		out = append(out, g.view[i])
	}
	return out
}

// HandleRequest consumes shuffle RPCs. handled reports whether the
// request belonged to gossip.
func (g *Protocol) HandleRequest(from runtime.NodeID, req any) (resp any, err error, handled bool) {
	r, ok := req.(shuffleReq)
	if !ok {
		return nil, nil, false
	}
	if g.stopped {
		return nil, fmt.Errorf("gossip: peer stopped"), true
	}
	reply := shuffleResp{Entries: g.sample(r.From, true)}
	g.app.OnExchange(r.From, r.Entries)
	for _, e := range r.Entries {
		g.insert(e)
	}
	return reply, nil, true
}
