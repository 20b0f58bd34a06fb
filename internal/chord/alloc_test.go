package chord

import (
	"fmt"
	"testing"

	"flowercdn/internal/ids"
	"flowercdn/internal/runtime"
)

// quietRing builds a stabilised 32-node ring over one Pool, as a
// deployment does, and freezes it, so that while a pin below runs the
// engine, nothing executes but the one duty the pin fired by hand.
func quietRing(t testing.TB) (f *ringFixture, src, far *testPeer) {
	t.Helper()
	f = newRing(t, 77)
	for i := 0; i < 32; i++ {
		f.addPeer(ids.HashString(fmt.Sprintf("alloc-%d", i)))
	}
	f.settle(30 * runtime.Minute)
	f.checkRingConsistent()
	f.freeze()
	alive := f.aliveSorted()
	// The predecessor's position is the farthest key there is: routing
	// to it takes the most hops the ring has.
	return f, alive[1], alive[0]
}

// TestAllocPins pins the allocation count of each steady-state
// maintenance duty, start to finish: the call, every message and RPC it
// causes on other nodes, and the callbacks that come home. The sim
// backend's own records are pooled and its timers come from slabs of
// 512, which AllocsPerRun's integer mean rounds away. A non-member
// Client of the same deployment, entering through the ring member src,
// draws on the same pool.
func TestAllocPins(t *testing.T) {
	f, src, far := quietRing(t)
	n := src.node
	cl := &clientPeer{}
	cl.nid = f.net.Join(cl, f.topo.Place(f.rng))
	c, err := f.pool.NewClient(f.cfg, f.net, cl.nid)
	if err != nil {
		t.Fatal(err)
	}
	cl.client = c
	key := far.node.Self().ID
	var resolved, hops int
	onOwner := func(owner Entry, h int, err error) {
		if err != nil || owner != far.node.Self() {
			t.Errorf("lookup: owner %v, err %v, want %v", owner, err, far.node.Self())
		}
		resolved++
		hops = h
	}
	var payload any = GatewayAnnounce{E: n.Self()}
	run := func() { f.eng.Run(f.eng.Now() + 5*runtime.Second) }
	// succ answers n's stabilize probes. Before each round of the
	// "stabilize after a change" pin it rebuilds its list from next's,
	// whose last two entries it skips every other round (its own list
	// takes all but next's last), so every answer gives a list the
	// successor did not hold when it last answered.
	alive := f.aliveSorted()
	succ, next := alive[2].node, alive[3].node
	if n.Successor() != succ.Self() {
		t.Fatalf("successor %v, want %v", n.Successor(), succ.Self())
	}
	changes, short := succ.SuccessorsVersion(), false
	changeSuccessor := func() {
		theirs := next.Successors()
		if short = !short; short {
			theirs = theirs[:len(theirs)-2]
		}
		succ.mergeSuccList(next.Self(), theirs)
	}

	pins := []struct {
		name string
		max  float64
		duty func()
	}{
		{"Lookup", 0, func() { n.Lookup(key, onOwner) }},
		{"pingFingers", 0, n.pingFingers},
		{"checkPredecessor", 0, n.checkPredecessor},
		{"notifySuccessor", 0, n.notifySuccessor},
		{"stabilize", 0, n.stabilize}, // the successor answers with a pooled reply
		{"stabilize after a change", 0, func() { // 2 before replies were pooled: the list's copy and the boxed reply
			changeSuccessor()
			n.stabilize()
		}},
		{"Route", 0, func() { // the owner lists the message again
			n.Route(key, payload)
			far.routed = far.routed[:0]
		}},
		{"Client.LookupVia", 0, func() { c.LookupVia(n.Self(), key, onOwner) }},
		{"Client.RouteVia", 0, func() {
			c.RouteVia(n.Self(), key, payload)
			far.routed = far.routed[:0]
		}},
	}
	for _, pin := range pins {
		sent := f.net.Stats().MessagesSent
		got := testing.AllocsPerRun(200, func() {
			pin.duty()
			run()
		})
		if f.net.Stats().MessagesSent == sent {
			t.Errorf("%s sent nothing: the pin measured an idle ring", pin.name)
		}
		if got > pin.max {
			t.Errorf("%s allocates %v objects per round, want at most %v", pin.name, got, pin.max)
		}
	}
	if got := succ.SuccessorsVersion() - changes; got != 201 {
		t.Errorf("the successor's list changed %d times, want once per round, 201", got)
	}
	if resolved != 2*201 || hops < 2 {
		t.Errorf("lookups resolved %d times over %d hops, want %d times over several hops", resolved, hops, 2*201)
	}
	if len(f.pool.pending) != 0 {
		t.Errorf("%d lookups still pending on a quiet ring", len(f.pool.pending))
	}
	if err := f.pool.Check(); err != nil {
		t.Error(err)
	}
}

// BenchmarkStabilizeRound prices one stabilize round on a quiet ring,
// start to finish: the probe, the successor's answer, the merge and the
// notify it sends.
func BenchmarkStabilizeRound(b *testing.B) {
	f, src, _ := quietRing(b)
	n := src.node
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.stabilize()
		f.eng.Run(f.eng.Now() + 5*runtime.Second)
	}
}

// BenchmarkClientLookup prices one lookup by a non-member Client through
// a gateway on a quiet ring, start to finish: the handoff, the routing,
// the reply and the callback.
func BenchmarkClientLookup(b *testing.B) {
	f, src, far := quietRing(b)
	cl := &clientPeer{}
	cl.nid = f.net.Join(cl, f.topo.Place(f.rng))
	c, err := NewClient(f.cfg, f.net, cl.nid)
	if err != nil {
		b.Fatal(err)
	}
	cl.client = c
	gw, key := src.node.Self(), far.node.Self().ID
	var failed int
	onOwner := func(_ Entry, _ int, err error) {
		if err != nil {
			failed++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.LookupVia(gw, key, onOwner)
		f.eng.Run(f.eng.Now() + 5*runtime.Second)
	}
	if failed != 0 {
		b.Fatalf("%d of %d lookups failed", failed, b.N)
	}
}
