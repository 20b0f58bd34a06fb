package chord

import (
	"fmt"
	goruntime "runtime"
	"testing"
	"weak"

	"flowercdn/internal/ids"
	"flowercdn/internal/runtime"
)

// TestLostClaimBuildsNoTables: a claimant that loses its position never
// starts, so it never makes the successor list, the finger table or the
// claims map a member needs. Under the paper's churn most claimants lose.
func TestLostClaimBuildsNoTables(t *testing.T) {
	f := newRing(t, 11)
	a := f.addPeer(1 << 20)
	b := f.addPeer(1 << 50)
	f.settle(5 * runtime.Minute)

	type claimant struct {
		n   *Node
		err error
		ran bool
	}
	claim := func(name string, pos ids.ID) *claimant {
		p := &testPeer{}
		p.nid = f.net.Join(p, f.topo.Place(f.rng))
		n, err := f.pool.NewNode(f.cfg, f.net, f.rng.Split(name), p, p.nid, pos)
		if err != nil {
			t.Fatal(err)
		}
		p.node = n
		c := &claimant{n: n}
		n.JoinAt(a.node.Self(), func(_ Entry, err error) { c.err, c.ran = err, true })
		return c
	}
	// Two rivals for a vacant position, and one for b's own.
	rivals := []*claimant{claim("rival0", 1<<40), claim("rival1", 1<<40)}
	occupied := claim("occupant", b.node.Self().ID)
	f.settle(2 * runtime.Minute)

	lost := map[error]int{}
	for i, c := range append(rivals, occupied) {
		if !c.ran {
			t.Fatalf("claimant %d never heard back", i)
		}
		if c.err == nil {
			if c.n.fingers == nil {
				t.Errorf("claimant %d won but has made no finger table after two minutes as a member", i)
			}
			continue
		}
		lost[c.err]++
		if c.n.succs != nil || c.n.fingers != nil || c.n.claims != nil || c.n.notify != nil {
			t.Errorf("claimant %d lost (%v) but made successors %v, fingers %v, claims %v, notify %v",
				i, c.err, c.n.succs != nil, c.n.fingers != nil, c.n.claims != nil, c.n.notify != nil)
		}
		c.n.Stop() // as a deployment discards a losing claimant
	}
	if lost[ErrClaimDenied] != 1 || lost[ErrOccupied] != 1 {
		t.Fatalf("claims lost %v, want one ErrClaimDenied and one ErrOccupied", lost)
	}
	if a.node.claims == nil && b.node.claims == nil {
		t.Error("no member recorded the granted claim")
	}
	if err := f.pool.Check(); err != nil {
		t.Error(err)
	}
}

// dualPeer is a ring member that also keeps a non-member Client, as a
// flower directory does, and offers each message to its node first.
type dualPeer struct {
	testPeer
	client   *Client
	byClient int // replies the node declined and the client took
}

func (p *dualPeer) HandleMessage(from runtime.NodeID, msg any) {
	switch {
	case p.node.HandleMessage(from, msg):
	case p.client.HandleMessage(from, msg):
		p.byClient++
	default:
		p.unclaimed++
	}
}

// TestRepliesGoToTheirIssuer: the pending map is the deployment's, so a
// peer's node sees the replies to its client's lookups first. It must
// decline them, and the client must take them, each lookup reporting
// once with the right owner; the node's own lookups stay the node's.
func TestRepliesGoToTheirIssuer(t *testing.T) {
	f := newRing(t, 31)
	for i := 0; i < 8; i++ {
		f.addPeer(ids.HashString(fmt.Sprintf("issuer-%d", i)))
	}
	f.settle(10 * runtime.Minute)
	d := &dualPeer{}
	d.nid = f.net.Join(d, f.topo.Place(f.rng))
	pos := ids.HashString("dual")
	n, err := f.pool.NewNode(f.cfg, f.net, f.rng.Split("dual"), d, d.nid, pos)
	if err != nil {
		t.Fatal(err)
	}
	d.node = n
	if d.client, err = f.pool.NewClient(f.cfg, f.net, d.nid); err != nil {
		t.Fatal(err)
	}
	joined := false
	n.Join(f.peers[0].node.Self(), func(err error) { joined = err == nil })
	f.settle(10 * runtime.Minute)
	if !joined {
		t.Fatal("the dual peer did not join")
	}
	f.freeze()
	d.unclaimed = 0

	const lookups = 20
	var byClient, byNode int
	for i := 0; i < lookups; i++ {
		key := ids.HashString(fmt.Sprintf("issued-%d", i))
		want := f.wantOwner(key).node.Self()
		if want == n.Self() {
			continue // resolves at the node without a reply
		}
		check := func(count *int) func(Entry, int, error) {
			return func(owner Entry, _ int, err error) {
				*count++
				if err != nil || owner != want {
					t.Errorf("lookup of %s: owner %v, err %v, want %v", key, owner, err, want)
				}
			}
		}
		d.client.LookupVia(f.peers[i%8].node.Self(), key, check(&byClient))
		n.Lookup(key, check(&byNode))
		f.settle(runtime.Minute)
		if byClient != byNode {
			t.Fatalf("lookup %d: the client's reported %d times, the node's %d", i, byClient, byNode)
		}
	}
	if byClient < lookups/2 || d.byClient != byClient || d.unclaimed != 0 {
		t.Errorf("%d client lookups reported; the client took %d replies, %d went unclaimed", byClient, d.byClient, d.unclaimed)
	}
	if err := f.pool.Check(); err != nil {
		t.Error(err)
	}
}

// TestStoppedMemberIsCollectable: a member's lookups, messages and
// probes outlive it on the deployment's lists, and must not keep it
// alive. The member stops with a lookup and a probe in flight.
func TestStoppedMemberIsCollectable(t *testing.T) {
	f := newRing(t, 33)
	for i := 0; i < 8; i++ {
		f.addPeer(ids.HashString(fmt.Sprintf("weak-%d", i)))
	}
	f.settle(10 * runtime.Minute)
	victim := f.peers[3]
	n := victim.node
	n.Lookup(ids.HashString("in flight"), func(Entry, int, error) {})
	n.stabilize()
	gone := weak.Make(n)
	n.Stop()
	f.net.Fail(victim.nid)
	victim.node, n = nil, nil
	// Long enough for every RPC to the dead member to time out.
	f.settle(5 * runtime.Minute)
	if len(f.pool.msgs) == 0 || len(f.pool.lookups) == 0 || len(f.pool.probes) == 0 || len(f.pool.replies) == 0 {
		t.Fatalf("lists hold %d messages, %d lookups, %d probes, %d replies: nothing went through the pool",
			len(f.pool.msgs), len(f.pool.lookups), len(f.pool.probes), len(f.pool.replies))
	}
	if err := f.pool.Check(); err != nil {
		t.Fatal(err)
	}
	goruntime.GC()
	goruntime.GC()
	if gone.Value() != nil {
		t.Fatal("a stopped member is still reachable after its records went back to the pool")
	}
	goruntime.KeepAlive(f)
}

// TestDecodedRepliesKeepTheListBounded: on a socket, the replies a
// prober reads are decoded copies, not the records its pool handed out,
// and a process whose members probe more than they are probed (koorde's
// Neighbors) reads more replies than it makes. The list must keep no
// more than the pool has made, and answers must come off it.
func TestDecodedRepliesKeepTheListBounded(t *testing.T) {
	c, err := runtime.NewCodec("binary")
	if err != nil {
		t.Fatal(err)
	}
	f := newRing(t, 35)
	for i := 0; i < 4; i++ {
		f.addPeer(ids.HashString(fmt.Sprintf("bounded-%d", i)))
	}
	f.settle(10 * runtime.Minute)
	f.freeze()
	pl := NewPool() // one process's pool, beside the ring's
	n, err := pl.NewNode(f.cfg, f.net, f.rng.Split("bounded"), &testPeer{}, runtime.None, ids.HashString("bounded"))
	if err != nil {
		t.Fatal(err)
	}
	n.Create()
	answer := func() {
		resp, err, handled := n.HandleRequest(runtime.None, neighborsReq{})
		if err != nil || !handled {
			t.Fatalf("neighbours probe: err %v, handled %v", err, handled)
		}
		if _, err := c.AppendMessage(nil, resp); err != nil { // the record leaves on the wire
			t.Fatal(err)
		}
	}
	answer()
	answer()
	// Replies from the ring's members, as decoded off the wire.
	var wire [][]byte
	for _, p := range f.peers {
		resp, _, _ := p.node.HandleRequest(runtime.None, neighborsReq{})
		b, err := c.AppendMessage(nil, resp)
		if err != nil {
			t.Fatal(err)
		}
		wire = append(wire, b)
	}
	for i := 0; i < 100; i++ {
		dec, err := c.DecodeMessage(wire[i%len(wire)])
		if err != nil {
			t.Fatal(err)
		}
		pl.putNeighbors(dec.(*neighborsResp))
		if err := pl.Check(); err != nil {
			t.Fatal(err)
		}
	}
	if len(pl.replies) != 2 || pl.repliesMade != 2 {
		t.Fatalf("%d replies listed, %d made: want the two the pool made", len(pl.replies), pl.repliesMade)
	}
	answer()
	answer()
	if len(pl.replies) != 0 || pl.repliesMade != 2 {
		t.Fatalf("after two more answers %d replies listed, %d made: want the listed ones used", len(pl.replies), pl.repliesMade)
	}
}
