package chord

import (
	"errors"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/simrt"
	"fmt"
	"sort"
	"testing"

	"flowercdn/internal/ids"
	"flowercdn/internal/topology"
	"flowercdn/internal/trace"
)

// testPeer is the minimal application peer wrapping a chord Node.
type testPeer struct {
	node      *Node
	nid       runtime.NodeID
	routed    []routedRecord
	unclaimed int // messages the node declined, e.g. replies to attempts it gave up on
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
	if !p.node.HandleMessage(from, msg) {
		p.unclaimed++
	}
}

func (p *testPeer) HandleRequest(from runtime.NodeID, req any) (any, error) {
	if resp, err, ok := p.node.HandleRequest(from, req); ok {
		return resp, err
	}
	return nil, fmt.Errorf("unhandled request %T", req)
}

type ringFixture struct {
	t     testing.TB
	eng   *simrt.Runtime
	net   runtime.Transport
	topo  *topology.Topology
	rng   *rnd.RNG
	cfg   Config
	pool  *Pool // the ring's records, shared as in a deployment
	peers []*testPeer
}

func newRing(t testing.TB, seed uint64) *ringFixture {
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
		pool: NewPool(),
	}
}

// addPeer creates a peer at ring position id; if first, it creates the
// ring, otherwise it joins via peers[0].
func (f *ringFixture) addPeer(id ids.ID) *testPeer {
	f.t.Helper()
	p := &testPeer{}
	p.nid = f.net.Join(p, f.topo.Place(f.rng))
	n, err := f.pool.NewNode(f.cfg, f.net, f.rng.Split(fmt.Sprint(id)), p, p.nid, id)
	if err != nil {
		f.t.Fatal(err)
	}
	p.node = n
	if len(f.peers) == 0 {
		n.Create()
	} else {
		// Join through any alive member; under churn fixtures the first
		// peer may be long dead.
		var gw Entry
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
			// Churny rings can defeat a join; treat the peer as dead so
			// consistency checks skip it.
			n.Stop()
			f.net.Fail(p.nid)
		}
	}
	f.peers = append(f.peers, p)
	return p
}

// settle runs enough simulated time for stabilization to converge.
func (f *ringFixture) settle(d int64) {
	f.eng.Run(f.eng.Now() + d)
}

// freeze cancels every node's periodic maintenance and drains the RPCs
// in flight, so that from here on only what the test starts runs and
// the ring's pointers stay as they are.
func (f *ringFixture) freeze() {
	for _, p := range f.peers {
		for _, tk := range p.node.timers {
			tk.Cancel()
		}
	}
	f.settle(runtime.Minute)
}

// aliveSorted returns alive peers sorted by ring ID.
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

// ringConsistent reports whether successor pointers of alive peers form
// the sorted cycle.
func (f *ringFixture) ringConsistent() bool {
	alive := f.aliveSorted()
	for i, p := range alive {
		want := alive[(i+1)%len(alive)]
		if p.node.Successor().Node != want.nid {
			return false
		}
	}
	return true
}

// checkRingConsistent verifies that successor pointers of alive peers
// form the sorted cycle.
func (f *ringFixture) checkRingConsistent() {
	f.t.Helper()
	alive := f.aliveSorted()
	for i, p := range alive {
		want := alive[(i+1)%len(alive)]
		got := p.node.Successor()
		if got.Node != want.nid {
			f.t.Fatalf("peer %s successor = %s, want %s",
				p.node.Self(), got, want.node.Self())
		}
	}
}

func TestSingleNodeRingOwnsEverything(t *testing.T) {
	f := newRing(t, 1)
	p := f.addPeer(ids.ID(1000))
	f.settle(2 * runtime.Minute)
	var owner Entry
	p.node.Lookup(ids.ID(12345), func(o Entry, _ int, err error) {
		if err != nil {
			t.Fatal(err)
		}
		owner = o
	})
	f.settle(10 * runtime.Second)
	if owner.Node != p.nid {
		t.Fatalf("single node should own all keys, got %s", owner)
	}
}

func TestRingFormsAndStabilizes(t *testing.T) {
	f := newRing(t, 2)
	idsList := []ids.ID{100, 5000, 2 << 40, 9 << 55, 3 << 30, 7 << 50, 1 << 20, 5 << 60}
	for _, id := range idsList {
		f.addPeer(id)
	}
	f.settle(5 * runtime.Minute)
	f.checkRingConsistent()
	// Predecessors must also be consistent.
	alive := f.aliveSorted()
	for i, p := range alive {
		want := alive[(i+len(alive)-1)%len(alive)]
		if got := p.node.Predecessor(); !got.Valid() || got.Node != want.nid {
			t.Fatalf("peer %s predecessor = %s, want %s", p.node.Self(), got, want.node.Self())
		}
	}
}

func TestLookupFindsCorrectOwner(t *testing.T) {
	f := newRing(t, 3)
	for i := 0; i < 16; i++ {
		f.addPeer(ids.HashString(fmt.Sprintf("node-%d", i)))
	}
	f.settle(10 * runtime.Minute)
	f.checkRingConsistent()

	misses := 0
	for trial := 0; trial < 50; trial++ {
		key := ids.ID(f.rng.Uint64())
		want := f.wantOwner(key)
		src := f.peers[f.rng.Intn(len(f.peers))]
		var got Entry
		var gerr error
		src.node.Lookup(key, func(o Entry, hops int, err error) { got, gerr = o, err })
		f.settle(runtime.Minute)
		if gerr != nil {
			t.Fatalf("lookup error: %v", gerr)
		}
		if got.Node != want.nid {
			misses++
		}
	}
	if misses != 0 {
		t.Fatalf("%d/50 lookups resolved to wrong owner on a stable ring", misses)
	}
}

func TestLookupHopCountLogarithmic(t *testing.T) {
	f := newRing(t, 4)
	const n = 32
	for i := 0; i < n; i++ {
		f.addPeer(ids.HashString(fmt.Sprintf("n%d", i)))
	}
	f.settle(20 * runtime.Minute) // let fingers build
	total, count := 0, 0
	for trial := 0; trial < 40; trial++ {
		key := ids.ID(f.rng.Uint64())
		src := f.peers[f.rng.Intn(len(f.peers))]
		src.node.Lookup(key, func(_ Entry, hops int, err error) {
			if err == nil {
				total += hops
				count++
			}
		})
		f.settle(30 * runtime.Second)
	}
	if count < 35 {
		t.Fatalf("only %d/40 lookups completed", count)
	}
	avg := float64(total) / float64(count)
	// With fingers built, average hops should be well under n/2 (linear
	// scan) — around log2(32)=5.
	if avg > 10 {
		t.Fatalf("average hops %.1f too high for %d-node ring with fingers", avg, n)
	}
}

func TestRingHealsAfterFailures(t *testing.T) {
	f := newRing(t, 5)
	for i := 0; i < 12; i++ {
		f.addPeer(ids.HashString(fmt.Sprintf("peer%d", i)))
	}
	f.settle(10 * runtime.Minute)
	// Kill 4 peers, including adjacent ones.
	alive := f.aliveSorted()
	for _, idx := range []int{1, 2, 7, 10} {
		p := alive[idx]
		p.node.Stop()
		f.net.Fail(p.nid)
	}
	f.settle(10 * runtime.Minute)
	f.checkRingConsistent()
	// Lookups route correctly again.
	for trial := 0; trial < 20; trial++ {
		key := ids.ID(f.rng.Uint64())
		want := f.wantOwner(key)
		src := f.aliveSorted()[f.rng.Intn(len(f.aliveSorted()))]
		var got Entry
		src.node.Lookup(key, func(o Entry, _ int, err error) {
			if err == nil {
				got = o
			}
		})
		f.settle(runtime.Minute)
		if got.Node != want.nid {
			t.Fatalf("post-failure lookup for %s: got %v, want %v", key, got, want.node.Self())
		}
	}
}

func TestRoutePayloadReachesOwner(t *testing.T) {
	f := newRing(t, 6)
	for i := 0; i < 8; i++ {
		f.addPeer(ids.HashString(fmt.Sprintf("r%d", i)))
	}
	f.settle(10 * runtime.Minute)
	key := ids.ID(f.rng.Uint64())
	want := f.wantOwner(key)
	src := f.peers[0]
	src.node.Route(key, "query-payload")
	f.settle(runtime.Minute)
	if len(want.routed) != 1 {
		t.Fatalf("owner received %d routed messages, want 1", len(want.routed))
	}
	rec := want.routed[0]
	if rec.key != key || rec.origin != src.nid || rec.pay != "query-payload" {
		t.Fatalf("routed record %+v wrong", rec)
	}
}

func TestClientLookupAndRoute(t *testing.T) {
	f := newRing(t, 7)
	for i := 0; i < 8; i++ {
		f.addPeer(ids.HashString(fmt.Sprintf("c%d", i)))
	}
	f.settle(10 * runtime.Minute)

	// A non-member client.
	cl := &clientPeer{}
	cl.nid = f.net.Join(cl, f.topo.Place(f.rng))
	c, err := NewClient(f.cfg, f.net, cl.nid)
	if err != nil {
		t.Fatal(err)
	}
	cl.client = c

	key := ids.ID(f.rng.Uint64())
	want := f.wantOwner(key)
	gw := f.peers[3].node.Self()
	var got Entry
	c.LookupVia(gw, key, func(o Entry, hops int, err error) {
		if err != nil {
			t.Errorf("client lookup failed: %v", err)
			return
		}
		if hops < 0 {
			t.Errorf("negative hops")
		}
		got = o
	})
	f.settle(runtime.Minute)
	if got.Node != want.nid {
		t.Fatalf("client lookup owner %v, want %v", got, want.node.Self())
	}

	c.RouteVia(gw, key, "from-client")
	f.settle(runtime.Minute)
	found := false
	for _, r := range want.routed {
		if r.pay == "from-client" && r.origin == cl.nid {
			found = true
		}
	}
	if !found {
		t.Fatal("client-routed payload did not reach owner")
	}
}

type clientPeer struct {
	nid    runtime.NodeID
	client *Client
}

func (c *clientPeer) HandleMessage(from runtime.NodeID, msg any) {
	c.client.HandleMessage(from, msg)
}
func (c *clientPeer) HandleRequest(runtime.NodeID, any) (any, error) {
	return nil, errors.New("client has no rpcs")
}

func TestLookupTimesOutWhenGatewayDead(t *testing.T) {
	f := newRing(t, 8)
	p := f.addPeer(1 << 40)
	q := f.addPeer(1 << 50)
	f.settle(5 * runtime.Minute)
	q.node.Stop()
	f.net.Fail(q.nid)

	cl := &clientPeer{}
	cl.nid = f.net.Join(cl, f.topo.Place(f.rng))
	c, _ := NewClient(f.cfg, f.net, cl.nid)
	cl.client = c
	var gotErr error
	done := false
	c.LookupVia(q.node.Self(), ids.ID(5), func(_ Entry, _ int, err error) {
		gotErr = err
		done = true
	})
	f.settle(5 * runtime.Minute)
	if !done {
		t.Fatal("callback never ran")
	}
	if !errors.Is(gotErr, ErrLookupFailed) {
		t.Fatalf("err = %v, want ErrLookupFailed", gotErr)
	}
	_ = p
}

func TestJoinAtVacantPosition(t *testing.T) {
	f := newRing(t, 9)
	a := f.addPeer(1 << 20)
	f.addPeer(1 << 40)
	f.settle(5 * runtime.Minute)

	pos := ids.ID(1 << 30) // vacant, owned by the 1<<40 node
	p := &testPeer{}
	p.nid = f.net.Join(p, f.topo.Place(f.rng))
	n, _ := NewNode(f.cfg, f.net, f.rng.Split("joiner"), p, p.nid, pos)
	p.node = n
	var joinErr error
	done := false
	n.JoinAt(a.node.Self(), func(_ Entry, err error) { joinErr, done = err, true })
	f.settle(runtime.Minute)
	if !done || joinErr != nil {
		t.Fatalf("JoinAt: done=%v err=%v", done, joinErr)
	}
	f.peers = append(f.peers, p)
	f.settle(5 * runtime.Minute)
	f.checkRingConsistent()
	// The position now resolves to the new node.
	var owner Entry
	a.node.Lookup(pos, func(o Entry, _ int, err error) {
		if err == nil {
			owner = o
		}
	})
	f.settle(runtime.Minute)
	if owner.Node != p.nid {
		t.Fatalf("position owner %v after JoinAt, want new node", owner)
	}
}

func TestJoinAtOccupiedPosition(t *testing.T) {
	f := newRing(t, 10)
	a := f.addPeer(1 << 20)
	b := f.addPeer(1 << 30)
	f.settle(5 * runtime.Minute)

	p := &testPeer{}
	p.nid = f.net.Join(p, f.topo.Place(f.rng))
	n, _ := NewNode(f.cfg, f.net, f.rng.Split("dup"), p, p.nid, ids.ID(1<<30))
	p.node = n
	var gotErr error
	var current Entry
	n.JoinAt(a.node.Self(), func(cur Entry, err error) { current, gotErr = cur, err })
	f.settle(runtime.Minute)
	if !errors.Is(gotErr, ErrOccupied) {
		t.Fatalf("err = %v, want ErrOccupied", gotErr)
	}
	if current.Node != b.nid {
		t.Fatalf("current = %v, want incumbent %v", current, b.node.Self())
	}
}

func TestConcurrentClaimsOnlyOneWins(t *testing.T) {
	f := newRing(t, 11)
	a := f.addPeer(1 << 20)
	f.addPeer(1 << 50)
	f.settle(5 * runtime.Minute)

	pos := ids.ID(1 << 40)
	results := make(map[int]error)
	mkJoiner := func(i int) {
		p := &testPeer{}
		p.nid = f.net.Join(p, f.topo.Place(f.rng))
		n, _ := NewNode(f.cfg, f.net, f.rng.Split(fmt.Sprintf("claimant%d", i)), p, p.nid, pos)
		p.node = n
		n.JoinAt(a.node.Self(), func(_ Entry, err error) { results[i] = err })
	}
	mkJoiner(0)
	mkJoiner(1)
	mkJoiner(2)
	f.settle(2 * runtime.Minute)
	if len(results) != 3 {
		t.Fatalf("only %d/3 claim attempts resolved", len(results))
	}
	wins := 0
	for i, err := range results {
		if err == nil {
			wins++
		} else if !errors.Is(err, ErrClaimDenied) && !errors.Is(err, ErrOccupied) {
			t.Fatalf("claimant %d got unexpected error %v", i, err)
		}
	}
	if wins != 1 {
		t.Fatalf("%d claimants won, want exactly 1", wins)
	}
}

func TestClaimExpiresWhenClaimantDies(t *testing.T) {
	f := newRing(t, 12)
	a := f.addPeer(1 << 20)
	f.addPeer(1 << 50)
	f.settle(5 * runtime.Minute)

	pos := ids.ID(1 << 40)
	// First claimant wins then dies before integrating.
	p1 := &testPeer{}
	p1.nid = f.net.Join(p1, f.topo.Place(f.rng))
	n1, _ := NewNode(f.cfg, f.net, f.rng.Split("dying"), p1, p1.nid, pos)
	p1.node = n1
	// Claim directly via the owner, without completing the join.
	owner := f.wantOwner(pos)
	granted := false
	f.net.Request(p1.nid, owner.nid, claimReq{Pos: pos, Claimant: n1.Self()}, 0,
		func(resp any, err error) {
			if err == nil {
				granted = resp.(claimResp).Granted
			}
		})
	f.settle(runtime.Minute)
	if !granted {
		t.Fatal("setup: first claim not granted")
	}
	f.net.Fail(p1.nid)

	// A rival is first denied (pointed at the dead claimant), which
	// triggers the owner's liveness probe of the reservation.
	f.settle(f.cfg.ClaimTTL + runtime.Second)
	p2 := &testPeer{}
	p2.nid = f.net.Join(p2, f.topo.Place(f.rng))
	n2, _ := NewNode(f.cfg, f.net, f.rng.Split("second"), p2, p2.nid, pos)
	p2.node = n2
	var err2 error
	done := false
	n2.JoinAt(a.node.Self(), func(cur Entry, err error) { err2, done = err, true })
	f.settle(2 * runtime.Minute)
	if !done {
		t.Fatal("second claim never resolved")
	}
	if !errors.Is(err2, ErrClaimDenied) {
		t.Fatalf("rival should be denied while the record stands, got %v", err2)
	}
	// The probe has confirmed the claimant dead by now; a retry wins.
	p3 := &testPeer{}
	p3.nid = f.net.Join(p3, f.topo.Place(f.rng))
	n3, _ := NewNode(f.cfg, f.net, f.rng.Split("third"), p3, p3.nid, pos)
	p3.node = n3
	var err3 error
	done3 := false
	n3.JoinAt(a.node.Self(), func(_ Entry, err error) { err3, done3 = err, true })
	f.settle(2 * runtime.Minute)
	if !done3 {
		t.Fatal("retry claim never resolved")
	}
	if err3 != nil {
		t.Fatalf("retry after dead-claimant probe should win, got %v", err3)
	}
}

func TestOwnsKey(t *testing.T) {
	f := newRing(t, 13)
	f.addPeer(100)
	f.addPeer(200)
	f.addPeer(300)
	f.settle(10 * runtime.Minute)
	alive := f.aliveSorted()
	// Peer with ID 200 owns (100, 200]; it also answers for its
	// predecessor's exact position 100 (replacement-claim serialization
	// — see OwnsKey).
	p := alive[1]
	if !p.node.OwnsKey(150) || !p.node.OwnsKey(200) {
		t.Fatal("peer should own keys in (100,200]")
	}
	if !p.node.OwnsKey(100) {
		t.Fatal("peer must answer for its predecessor's exact position")
	}
	if p.node.OwnsKey(250) || p.node.OwnsKey(99) {
		t.Fatal("peer claims keys outside its arc")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Config){
		func(c *Config) { c.SuccessorListLen = 0 },
		func(c *Config) { c.StabilizeInterval = 0 },
		func(c *Config) { c.RPCTimeout = 0 },
		func(c *Config) { c.ClaimTTL = 0 },
	}
	for i, mut := range bads {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestStopCancelsPendingLookups(t *testing.T) {
	f := newRing(t, 14)
	a := f.addPeer(1 << 20)
	f.addPeer(1 << 40)
	f.settle(5 * runtime.Minute)
	got := make(chan error, 1)
	a.node.Lookup(ids.ID(1<<30), func(_ Entry, _ int, err error) {
		select {
		case got <- err:
		default:
		}
	})
	a.node.Stop()
	f.settle(5 * runtime.Minute)
	// Either the lookup completed before Stop took effect (reply already
	// in flight resolves on arrival) or it error out; it must not hang.
	select {
	case <-got:
	default:
		// Acceptable: stopped nodes may drop pending work silently when
		// the reply round-trip is lost; ensure no panic happened and the
		// node is stopped.
		if !a.node.Stopped() {
			t.Fatal("node not stopped")
		}
	}
}

// TestLookupOnStoppedNodeReportsStopped: a lookup issued after Stop goes
// nowhere, and its timeout says why instead of retrying.
func TestLookupOnStoppedNodeReportsStopped(t *testing.T) {
	f := newRing(t, 15)
	a := f.addPeer(1 << 20)
	f.addPeer(1 << 40)
	f.settle(5 * runtime.Minute)
	a.node.Stop()
	var got []error
	a.node.Lookup(ids.ID(1<<30), func(_ Entry, _ int, err error) { got = append(got, err) })
	f.settle(f.cfg.LookupTimeout + runtime.Second)
	if len(got) != 1 || !errors.Is(got[0], ErrStopped) {
		t.Fatalf("lookup on a stopped node reported %v, want one ErrStopped", got)
	}
}
