package chord

import (
	"flowercdn/internal/runtime"
	"fmt"
	"testing"

	"flowercdn/internal/ids"
)

// TestRingSurvivesSustainedChurn joins and fails nodes continuously and
// verifies the survivors still form a consistent ring and resolve
// lookups correctly afterwards.
func TestRingSurvivesSustainedChurn(t *testing.T) {
	f := newRing(t, 40)
	const base = 20
	for i := 0; i < base; i++ {
		f.addPeer(ids.HashString(fmt.Sprintf("base-%d", i)))
	}
	f.settle(10 * runtime.Minute)

	// Churn: every 30 s one random peer fails and a new one joins.
	next := base
	for round := 0; round < 30; round++ {
		alive := f.aliveSorted()
		if len(alive) > 4 {
			victim := alive[f.rng.Intn(len(alive))]
			victim.node.Stop()
			f.net.Fail(victim.nid)
		}
		f.addPeer(ids.HashString(fmt.Sprintf("churn-%d", next)))
		next++
		f.settle(30 * runtime.Second)
	}
	// Chord guarantees eventual consistency: give stabilization bounded
	// time to converge after the churn stops, checking each round.
	consistent := false
	for round := 0; round < 40 && !consistent; round++ {
		f.settle(runtime.Minute)
		consistent = f.ringConsistent()
	}
	if !consistent {
		f.checkRingConsistent() // report the precise inconsistency
	}

	for trial := 0; trial < 25; trial++ {
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
			t.Fatalf("post-churn lookup wrong: got %v want %v", got, want.node.Self())
		}
	}
	// Thirty members stopped with lookups and probes in flight: the
	// records they used are back on the lists, and none names them.
	if err := f.pool.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestClaimTransfersToNewPredecessor verifies the duplicate-prevention
// mechanism: a claim granted by the old arc owner must block rivals
// even after a new node takes over the arc.
func TestClaimTransfersToNewPredecessor(t *testing.T) {
	f := newRing(t, 41)
	a := f.addPeer(1 << 20)
	owner := f.addPeer(1 << 50) // owns (1<<20, 1<<50]
	f.settle(5 * runtime.Minute)

	// A claimant reserves pos at the owner but stalls before joining.
	pos := ids.ID(1 << 45)
	stalled := &testPeer{}
	stalled.nid = f.net.Join(stalled, f.topo.Place(f.rng))
	granted := false
	f.net.Request(stalled.nid, owner.nid, claimReq{Pos: pos, Claimant: Entry{Node: stalled.nid, ID: pos}}, 0,
		func(resp any, err error) {
			if err == nil {
				granted = resp.(claimResp).Granted
			}
		})
	f.settle(runtime.Minute)
	if !granted {
		t.Fatal("setup: claim not granted")
	}

	// A new node integrates between the claimed position and the owner,
	// becoming the position's new arc owner.
	mid := f.addPeer(ids.ID(1<<45 + 1<<30))
	f.settle(5 * runtime.Minute)
	if owner.node.Predecessor().Node != mid.nid {
		t.Fatalf("setup: new node did not become predecessor (pred=%v)", owner.node.Predecessor())
	}

	// A rival claims through the ring: the transferred record must deny
	// it and point at the stalled claimant.
	rival := &testPeer{}
	rival.nid = f.net.Join(rival, f.topo.Place(f.rng))
	n, _ := NewNode(f.cfg, f.net, f.rng.Split("rival"), rival, rival.nid, pos)
	rival.node = n
	var gotErr error
	var current Entry
	done := false
	n.JoinAt(a.node.Self(), func(cur Entry, err error) { current, gotErr, done = cur, err, true })
	f.settle(2 * runtime.Minute)
	if !done {
		t.Fatal("rival claim never resolved")
	}
	if gotErr == nil {
		t.Fatal("rival claim granted despite transferred reservation")
	}
	if current.Node != stalled.nid {
		t.Fatalf("rival pointed at %v, want stalled claimant %d", current, stalled.nid)
	}
}

// TestPingFingersEvictsDead verifies the dead-finger probe.
func TestPingFingersEvictsDead(t *testing.T) {
	f := newRing(t, 42)
	for i := 0; i < 10; i++ {
		f.addPeer(ids.HashString(fmt.Sprintf("pf-%d", i)))
	}
	f.settle(20 * runtime.Minute) // build fingers
	src := f.aliveSorted()[0]
	fingers := src.node.FingerTable()
	if len(fingers) == 0 {
		t.Fatal("setup: no fingers built")
	}
	// Kill every node src's fingers point at.
	for _, e := range fingers {
		for _, p := range f.peers {
			if p.nid == e.Node && f.net.Alive(p.nid) {
				p.node.Stop()
				f.net.Fail(p.nid)
			}
		}
	}
	// Within a few ping rounds, all dead fingers are cleared.
	f.settle(10 * f.cfg.FingerPingInterval)
	for _, e := range src.node.FingerTable() {
		if !f.net.Alive(e.Node) {
			t.Fatalf("dead finger %v survived the ping sweep", e)
		}
	}
}

// TestOwnsKeyDeniesDuringHealing: a node with a cleared predecessor
// must not serialize claims (the duplicate-position defence).
func TestOwnsKeyDeniesDuringHealing(t *testing.T) {
	f := newRing(t, 43)
	a := f.addPeer(100)
	b := f.addPeer(200)
	f.settle(10 * runtime.Minute)
	// Simulate a cleared predecessor on b.
	b.node.pred = NoEntry
	if b.node.OwnsKey(150) {
		t.Fatal("node with unknown predecessor claimed arc ownership")
	}
	if !b.node.OwnsKey(200) {
		t.Fatal("node must still own its exact identifier")
	}
	_ = a
}

// TestAnnounceRestoresVisibility: a node the ring routes around can
// re-insert itself by announcing to the arc owner.
func TestAnnounceRestoresVisibility(t *testing.T) {
	f := newRing(t, 44)
	a := f.addPeer(1 << 20)
	b := f.addPeer(1 << 40)
	f.settle(5 * runtime.Minute)
	// Surgically hide b: a forgets it entirely.
	a.node.succs = []Entry{a.node.self}
	a.node.pred = a.node.self
	for i := range a.node.fingers {
		a.node.setFinger(i, NoEntry)
	}
	// b announces itself to a.
	b.node.Announce(a.node.Self())
	f.settle(5 * runtime.Minute)
	f.checkRingConsistent()
}

// TestLookupLatencyAccumulatesHops: lookups from a member across a
// settled ring report positive hop counts and complete within the
// engine's simulated latency budget.
func TestLookupHopAccounting(t *testing.T) {
	f := newRing(t, 45)
	for i := 0; i < 12; i++ {
		f.addPeer(ids.HashString(fmt.Sprintf("h-%d", i)))
	}
	f.settle(20 * runtime.Minute)
	src := f.aliveSorted()[0]
	key := f.aliveSorted()[6].node.Self().ID // somebody else's exact ID
	var hops int
	start := f.eng.Now()
	var took int64
	src.node.Lookup(key, func(_ Entry, h int, err error) {
		if err != nil {
			t.Errorf("lookup failed: %v", err)
		}
		hops = h
		took = f.eng.Now() - start
	})
	f.settle(runtime.Minute)
	if hops < 1 {
		t.Fatalf("hops = %d, want >= 1 for a remote key", hops)
	}
	if took <= 0 || took > 10*runtime.Second {
		t.Fatalf("lookup took %d ms, outside plausible bounds", took)
	}
}
