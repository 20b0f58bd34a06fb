package chord

import (
	"fmt"
	"testing"

	"flowercdn/internal/ids"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
)

// TestRecycledLookupsSurviveStragglers runs chains of lookups — each
// callback starting the next, so every record and message is reused at
// once — over lossy links with a timeout shorter than a long route's
// round trip. Attempts are abandoned while their message is still
// travelling, and its reply comes home after the record and perhaps the
// message have new tenants. Every lookup must still report exactly
// once, with the owner the ring's membership dictates (each lookup has
// its own key, so a reply matched to the wrong tenant shows), and
// nothing may stay pending or sit on the deployment's lists twice.
func TestRecycledLookupsSurviveStragglers(t *testing.T) {
	f := newRing(t, 91)
	for i := 0; i < 24; i++ {
		f.addPeer(ids.HashString(fmt.Sprintf("recycle-%d", i)))
	}
	f.settle(30 * runtime.Minute)
	f.checkRingConsistent()
	// With maintenance off, loss cannot evict live successors, so the
	// reference owner stays exact.
	f.freeze()
	for _, p := range f.peers {
		p.node.timeout = 800 * runtime.Millisecond
		p.node.retries = 12
	}
	f.eng.Network().SetLossRate(0.1, rnd.New(5))

	const chains, perChain = 3, 40
	var fired []int
	var failed int
	var next func(p *testPeer, left int)
	next = func(p *testPeer, left int) {
		if left == 0 {
			return
		}
		id := len(fired)
		fired = append(fired, 0)
		key := ids.HashString(fmt.Sprintf("key-%d", id))
		want := f.wantOwner(key).node.Self()
		p.node.Lookup(key, func(owner Entry, _ int, err error) {
			fired[id]++
			if err != nil {
				failed++
			} else if owner != want {
				t.Errorf("lookup %d for %s resolved to %v, want %v", id, key, owner, want)
			}
			next(p, left-1)
		})
	}
	for _, p := range f.peers {
		for c := 0; c < chains; c++ {
			next(p, perChain)
		}
	}
	f.settle(2 * runtime.Hour)

	if want := len(f.peers) * chains * perChain; len(fired) != want {
		t.Fatalf("%d lookups started, want %d: a chain stalled", len(fired), want)
	}
	for id, n := range fired {
		if n != 1 {
			t.Errorf("lookup %d reported %d times, want once", id, n)
		}
	}
	if failed > len(fired)/10 {
		t.Errorf("%d of %d lookups failed outright: the fixture is too harsh to test reuse", failed, len(fired))
	}
	stragglers := 0
	for _, p := range f.peers {
		stragglers += p.unclaimed
	}
	if len(f.pool.pending) != 0 {
		t.Errorf("%d lookups pending at quiescence", len(f.pool.pending))
	}
	// A list is as long as the most lookups ever in flight at once:
	// every peer's chains, or every peer's fixFingers round before the
	// freeze.
	if most := len(f.peers) * max(chains, fingersPerFix); len(f.pool.lookups) > most || len(f.pool.msgs) > most {
		t.Errorf("free lists hold %d records and %d messages, with never more than %d lookups in flight",
			len(f.pool.lookups), len(f.pool.msgs), most)
	}
	if err := f.pool.Check(); err != nil {
		t.Error(err)
	}
	if stragglers < 50 {
		t.Errorf("only %d replies arrived after their attempt was abandoned: the test did not exercise reuse", stragglers)
	}
}
