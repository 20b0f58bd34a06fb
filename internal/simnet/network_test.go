package simnet

import (
	"errors"
	"testing"

	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/sim"
	"flowercdn/internal/topology"
)

// echoNode records messages and answers RPCs by echoing the request.
type echoNode struct {
	msgs []any
	from []runtime.NodeID
	rpcs int
	err  error // returned from HandleRequest when non-nil
}

func (e *echoNode) HandleMessage(from runtime.NodeID, msg any) {
	e.msgs = append(e.msgs, msg)
	e.from = append(e.from, from)
}

func (e *echoNode) HandleRequest(from runtime.NodeID, req any) (any, error) {
	e.rpcs++
	if e.err != nil {
		return nil, e.err
	}
	return req, nil
}

type fixture struct {
	eng  *sim.Engine
	topo *topology.Topology
	net  *Network
	rng  *rnd.RNG
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	eng := sim.NewEngine()
	rng := rnd.New(11)
	topo, err := topology.New(topology.DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{eng: eng, topo: topo, net: New(eng.Clock(), topo), rng: rng}
}

func (f *fixture) join(h runtime.Handler) runtime.NodeID {
	return f.net.Join(h, f.topo.Place(f.rng))
}

func TestSendDeliversWithLatency(t *testing.T) {
	f := newFixture(t)
	a := f.join(&echoNode{})
	bn := &echoNode{}
	b := f.join(bn)
	f.net.Send(a, b, "hello")
	if len(bn.msgs) != 0 {
		t.Fatal("message delivered instantly; should wait for latency")
	}
	f.eng.RunAll()
	if len(bn.msgs) != 1 || bn.msgs[0] != "hello" || bn.from[0] != a {
		t.Fatalf("delivery wrong: msgs=%v from=%v", bn.msgs, bn.from)
	}
	lat := f.net.Latency(a, b)
	if f.eng.Now() != lat {
		t.Fatalf("delivered at %d, want link latency %d", f.eng.Now(), lat)
	}
	if lat < 10 || lat > 500 {
		t.Fatalf("latency %d out of model bounds", lat)
	}
}

func TestSendToDeadNodeDropped(t *testing.T) {
	f := newFixture(t)
	a := f.join(&echoNode{})
	bn := &echoNode{}
	b := f.join(bn)
	f.net.Fail(b)
	f.net.Send(a, b, "x")
	f.eng.RunAll()
	if len(bn.msgs) != 0 {
		t.Fatal("dead node received a message")
	}
	st := f.net.Stats()
	if st.MessagesDropped != 1 {
		t.Fatalf("MessagesDropped = %d, want 1", st.MessagesDropped)
	}
}

func TestFailDuringFlightDropsMessage(t *testing.T) {
	f := newFixture(t)
	a := f.join(&echoNode{})
	bn := &echoNode{}
	b := f.join(bn)
	f.net.Send(a, b, "x")
	// Fail the target before the message lands.
	f.eng.Schedule(1, func() { f.net.Fail(b) })
	f.eng.RunAll()
	if len(bn.msgs) != 0 {
		t.Fatal("message delivered to node that failed mid-flight")
	}
}

func TestRequestRoundTrip(t *testing.T) {
	f := newFixture(t)
	a := f.join(&echoNode{})
	bn := &echoNode{}
	b := f.join(bn)
	var got any
	var gotErr error
	called := 0
	f.net.Request(a, b, 42, 0, func(resp any, err error) {
		called++
		got, gotErr = resp, err
	})
	f.eng.RunAll()
	if called != 1 {
		t.Fatalf("callback ran %d times, want 1", called)
	}
	if gotErr != nil || got != 42 {
		t.Fatalf("resp=%v err=%v", got, gotErr)
	}
	if bn.rpcs != 1 {
		t.Fatalf("handler saw %d rpcs, want 1", bn.rpcs)
	}
	want := f.net.Latency(a, b) * 2
	if f.eng.Now() != want {
		t.Fatalf("round trip completed at %d, want %d", f.eng.Now(), want)
	}
}

func TestRequestApplicationError(t *testing.T) {
	f := newFixture(t)
	a := f.join(&echoNode{})
	appErr := errors.New("wrong role")
	b := f.join(&echoNode{err: appErr})
	var gotErr error
	f.net.Request(a, b, "q", 0, func(_ any, err error) { gotErr = err })
	f.eng.RunAll()
	if !errors.Is(gotErr, appErr) {
		t.Fatalf("err = %v, want application error", gotErr)
	}
}

func TestRequestToDeadNodeTimesOut(t *testing.T) {
	f := newFixture(t)
	a := f.join(&echoNode{})
	b := f.join(&echoNode{})
	f.net.Fail(b)
	var gotErr error
	called := 0
	f.net.Request(a, b, "q", 1000, func(_ any, err error) { called++; gotErr = err })
	f.eng.RunAll()
	if called != 1 || !errors.Is(gotErr, runtime.ErrTimeout) {
		t.Fatalf("called=%d err=%v, want one timeout", called, gotErr)
	}
	if f.eng.Now() < 1000 {
		t.Fatalf("timeout fired early at %d", f.eng.Now())
	}
	if f.net.Stats().RequestsTimedOut != 1 {
		t.Fatalf("RequestsTimedOut = %d, want 1", f.net.Stats().RequestsTimedOut)
	}
}

func TestRequestCallbackSuppressedIfRequesterDies(t *testing.T) {
	f := newFixture(t)
	a := f.join(&echoNode{})
	b := f.join(&echoNode{})
	called := 0
	f.net.Request(a, b, "q", 0, func(any, error) { called++ })
	f.eng.Schedule(1, func() { f.net.Fail(a) })
	f.eng.RunAll()
	if called != 0 {
		t.Fatal("dead requester's callback ran")
	}
}

func TestRequestTimeoutNotDoubleFired(t *testing.T) {
	f := newFixture(t)
	a := f.join(&echoNode{})
	b := f.join(&echoNode{})
	called := 0
	// Tiny timeout: the deadline fires before the response returns.
	f.net.Request(a, b, "q", 1, func(any, error) { called++ })
	f.eng.RunAll()
	if called != 1 {
		t.Fatalf("callback ran %d times, want exactly 1", called)
	}
}

func TestAliveBookkeeping(t *testing.T) {
	f := newFixture(t)
	a := f.join(&echoNode{})
	b := f.join(&echoNode{})
	if !f.net.Alive(a) || !f.net.Alive(b) {
		t.Fatal("Alive() false after joins")
	}
	loc := f.net.Locality(a)
	f.net.Fail(a)
	f.net.Fail(a) // idempotent
	if f.net.Alive(a) || !f.net.Alive(b) {
		t.Fatal("Alive() wrong")
	}
	if f.net.Locality(a) != loc {
		t.Fatal("Locality() changed across failure")
	}
	if f.net.Alive(runtime.None) || f.net.Alive(runtime.NodeID(99)) {
		t.Fatal("Alive() true for invalid ids")
	}
}

// TestForEachAlive enumerates the live nodes by an ascending scan of the
// id space through Alive: it finds every joined node but the failed one.
func TestForEachAlive(t *testing.T) {
	f := newFixture(t)
	var all []runtime.NodeID
	for i := 0; i < 5; i++ {
		all = append(all, f.join(&echoNode{}))
	}
	f.net.Fail(all[2])
	var seen []runtime.NodeID
	for id := runtime.NodeID(0); id <= all[4]+1; id++ {
		if f.net.Alive(id) {
			seen = append(seen, id)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("found %d live nodes, want 4", len(seen))
	}
	for _, id := range seen {
		if id == all[2] {
			t.Fatal("found dead node alive")
		}
	}
}

func TestLatencySymmetry(t *testing.T) {
	f := newFixture(t)
	a := f.join(&echoNode{})
	b := f.join(&echoNode{})
	if f.net.Latency(a, b) != f.net.Latency(b, a) {
		t.Fatal("latency not symmetric")
	}
}

type sized struct{ n int }

func (s sized) WireBytes() int { return s.n }

func TestByteAccounting(t *testing.T) {
	f := newFixture(t)
	a := f.join(&echoNode{})
	b := f.join(&echoNode{})
	f.net.Send(a, b, sized{n: 1000})
	f.net.Send(a, b, "plain")
	f.eng.RunAll()
	st := f.net.Stats()
	if st.BytesSent != 1000+runtime.DefaultMessageBytes {
		t.Fatalf("BytesSent = %d, want %d", st.BytesSent, 1000+runtime.DefaultMessageBytes)
	}
	if st.MessagesSent != 2 || st.MessagesDelivered != 2 {
		t.Fatalf("message counts: %+v", st)
	}
}

func TestLocalityExposed(t *testing.T) {
	f := newFixture(t)
	pl := f.topo.PlaceAt(topology.Locality(3), f.rng)
	id := f.net.Join(&echoNode{}, pl)
	if f.net.Locality(id) != pl.Loc {
		t.Fatalf("Locality = %d, want %d", f.net.Locality(id), pl.Loc)
	}
}

func TestPanicsOnProtocolBugs(t *testing.T) {
	f := newFixture(t)
	a := f.join(&echoNode{})
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Send to unregistered", func() { f.net.Send(a, runtime.NodeID(99), "x") })
	mustPanic("Request nil cb", func() { f.net.Request(a, a, "x", 0, nil) })
	mustPanic("Join nil handler", func() { f.net.Join(nil, topology.Placement{}) })
}
