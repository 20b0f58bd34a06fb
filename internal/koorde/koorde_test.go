package koorde

import (
	"fmt"
	"sort"
	"testing"

	"flowercdn/internal/chord"
	"flowercdn/internal/ids"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/simrt"
	"flowercdn/internal/topology"
	"flowercdn/internal/trace"
)

// testPeer is the minimal application peer wrapping a koorde Node.
type testPeer struct {
	node   *Node
	nid    runtime.NodeID
	routed []routedRecord
}

type routedRecord struct {
	key    ids.ID
	origin runtime.NodeID
	hops   int
	pay    any
}

func (p *testPeer) OnRouted(key ids.ID, payload any, origin runtime.NodeID, hops int, _ []trace.Hop) {
	p.routed = append(p.routed, routedRecord{key: key, origin: origin, hops: hops, pay: payload})
}

func (p *testPeer) HandleMessage(from runtime.NodeID, msg any) {
	p.node.HandleMessage(from, msg)
}

func (p *testPeer) HandleRequest(from runtime.NodeID, req any) (any, error) {
	if resp, err, ok := p.node.HandleRequest(from, req); ok {
		return resp, err
	}
	return nil, fmt.Errorf("unhandled request %T", req)
}

type ringFixture struct {
	t     *testing.T
	eng   *simrt.Runtime
	net   runtime.Transport
	topo  *topology.Topology
	rng   *rnd.RNG
	cfg   Config
	peers []*testPeer
}

func newRing(t *testing.T, seed uint64) *ringFixture {
	t.Helper()
	rng := rnd.New(seed)
	topo := topology.MustNew(topology.DefaultConfig(), rng)
	eng := simrt.New(topo)
	return &ringFixture{
		t:    t,
		eng:  eng,
		net:  eng.Net(),
		topo: topo,
		rng:  rng,
		cfg:  DefaultConfig(),
	}
}

// addPeer creates a peer at ring position id; if first, it creates the
// ring, otherwise it joins via an alive member.
func (f *ringFixture) addPeer(id ids.ID) *testPeer {
	f.t.Helper()
	p := &testPeer{}
	p.nid = f.net.Join(p, f.topo.Place(f.rng))
	n, err := NewNode(f.cfg, f.net, f.rng.Split(fmt.Sprint(id)), p, p.nid, id)
	if err != nil {
		f.t.Fatal(err)
	}
	p.node = n
	if len(f.peers) == 0 {
		n.Create()
	} else {
		var gw chord.Entry
		for _, q := range f.peers {
			if f.net.Alive(q.nid) {
				gw = q.node.Self()
				break
			}
		}
		if !gw.Valid() {
			f.t.Fatalf("no alive gateway for join of %s", id)
		}
		joined := false
		attempts := 0
		var try func()
		try = func() {
			attempts++
			n.Join(gw, func(err error) {
				if err == nil {
					joined = true
					return
				}
				if attempts < 3 {
					f.eng.Schedule(10*runtime.Second, try)
				}
			})
		}
		try()
		f.eng.Run(f.eng.Now() + 2*runtime.Minute)
		if !joined {
			f.t.Fatalf("join of %s failed", id)
		}
	}
	f.peers = append(f.peers, p)
	return p
}

func (f *ringFixture) settle(d int64) {
	f.eng.Run(f.eng.Now() + d)
}

func (f *ringFixture) aliveSorted() []*testPeer {
	var out []*testPeer
	for _, p := range f.peers {
		if f.net.Alive(p.nid) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].node.Self().ID < out[j].node.Self().ID })
	return out
}

// wantOwner computes the reference successor of key over alive peers.
func (f *ringFixture) wantOwner(key ids.ID) *testPeer {
	alive := f.aliveSorted()
	for _, p := range alive {
		if p.node.Self().ID >= key {
			return p
		}
	}
	return alive[0] // wrap
}

// buildRing spawns n peers at pseudo-random positions and settles long
// enough for stabilization and pointer fixing to converge.
func buildRing(t *testing.T, seed uint64, n int) *ringFixture {
	t.Helper()
	f := newRing(t, seed)
	idRNG := rnd.New(seed ^ 0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		f.addPeer(ids.HashString(fmt.Sprintf("member-%d-%d", seed, i)))
		f.settle(5 * runtime.Second)
	}
	_ = idRNG
	f.settle(5 * runtime.Minute)
	return f
}

// TestImaginaryStartEmbedsKey: the chosen imaginary node must lie on
// (self, succ], and injecting the remaining bits must reproduce the key
// exactly.
func TestImaginaryStartEmbedsKey(t *testing.T) {
	rng := rnd.New(7)
	for trial := 0; trial < 5000; trial++ {
		self := ids.ID(rng.Uint64())
		succ := ids.ID(uint64(self) + 1 + rng.Uint64()%(1<<60))
		key := ids.ID(rng.Uint64())
		b := []int{1, 2, 4, 8}[trial%4]
		i, kshift, bits := imaginaryStart(self, succ, key, b)
		if !ids.BetweenRightIncl(i, self, succ) {
			t.Fatalf("trial %d: start %x outside (%x, %x]", trial, i, self, succ)
		}
		if bits%b != 0 {
			t.Fatalf("trial %d: %d remaining bits not a multiple of b=%d", trial, bits, b)
		}
		// Inject every remaining bit: the cursor must land exactly on key.
		cur := uint64(i)
		for bits > 0 {
			s := b
			if s > bits {
				s = bits
			}
			cur = cur<<s | kshift>>(ids.Bits-s)
			kshift <<= s
			bits -= s
		}
		if ids.ID(cur) != key {
			t.Fatalf("trial %d: injection ended at %x, want %x", trial, cur, key)
		}
	}
}

// TestRouteReachesOwner: every routed key is delivered at the ring
// successor of the key, and in few hops.
func TestRouteReachesOwner(t *testing.T) {
	f := buildRing(t, 3, 32)
	alive := f.aliveSorted()

	keyRNG := rnd.New(99)
	total, walks := 0, 0
	const lookups = 100
	for q := 0; q < lookups; q++ {
		key := ids.ID(keyRNG.Uint64())
		src := alive[keyRNG.Intn(len(alive))]
		want := f.wantOwner(key)
		before := len(want.routed)
		src.node.Route(key, fmt.Sprintf("probe-%d", q))
		f.settle(30 * runtime.Second)
		if len(want.routed) != before+1 {
			t.Fatalf("lookup %d: key %x not delivered at owner %s (records %d)",
				q, key, want.node.Self(), len(want.routed))
		}
		rec := want.routed[len(want.routed)-1]
		if rec.key != key || rec.origin != src.nid {
			t.Fatalf("lookup %d: delivered record %+v", q, rec)
		}
		total += rec.hops
		walks++
	}
	mean := float64(total) / float64(walks)
	t.Logf("mean hops over %d lookups on %d nodes: %.2f", walks, len(alive), mean)
	// log_16(32) ≈ 1.25 de Bruijn hops plus correction walks; anything
	// near the ring-walk regime (~n/2 = 16) means routing is broken.
	if mean > 8 {
		t.Fatalf("mean hop count %.2f way above de Bruijn expectation", mean)
	}
}
