// Package transporttest is the shared conformance suite every
// runtime.Transport backend must pass: the contract tests for Send and
// Request semantics, the Join/Fail lifecycle, latency and loss
// sampling, and TransportStats accounting. internal/simnet's tests run
// it over the engine ("sim") and the wall clock, the reference for a
// socket process's same-process legs, and internal/socknet's over real
// TCP across transport instances ("socket") — so a semantic drift
// between backends fails compilation-adjacent tests instead of
// surfacing as a protocol heisenbug.
//
// The suite drives a World: one or more transport instances sharing a
// single id space, plus a Run hook that advances every instance's
// clock to an absolute time and blocks. Single-process backends expose
// one instance; the socket backend exposes one per process group, all
// within the test process but genuinely connected over localhost TCP.
package transporttest

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"flowercdn/internal/runtime"
	"flowercdn/internal/topology"
)

// World is one assembled backend universe.
type World struct {
	// Transports lists the cooperating transport instances sharing one
	// id space; single-process backends have exactly one.
	Transports []runtime.Transport
	// Topo is the topology every instance was built on.
	Topo *topology.Topology
	// Run drives every instance's clock until absolute time `until`
	// (ms since the world started) and blocks until all return.
	Run func(until int64)
	// Close tears the world down (nil ok).
	Close func()
	// Sever cuts instance i off from the others, as if its process died
	// (nil: the backend has no connection to sever).
	Sever func(i int)

	now int64
}

// Factory builds a fresh world. topoSeed builds the topology (every
// instance of one world must build the identical topology from it, and
// World.Topo carries it);
// lossRate/lossSeed configure message loss; instances is the number of
// cooperating transport instances a multi-process backend should
// spawn (single-process backends ignore it).
type Factory func(t *testing.T, topoSeed uint64, lossRate float64, lossSeed uint64, instances int) *World

// Instances is how many transport instances the suite asks a
// multi-process backend for.
const Instances = 3

// Ping, Pong and Sized are the suite's wire messages, registered with
// the runtime wire-type registry so the socket backend can frame them.
type Ping struct{ N int }
type Pong struct{ N int }

// Sized reports an explicit wire size for the accounting test.
type Sized struct{ N int }

// SizedBytes is Sized's modeled wire size.
const SizedBytes = 1000

func (Sized) WireBytes() int { return SizedBytes }

func init() {
	runtime.RegisterWireType(Ping{}, Pong{}, Sized{})
}

// at returns the i-th instance (everything maps to instance 0 on
// single-process backends).
func (w *World) at(i int) runtime.Transport {
	if i >= len(w.Transports) {
		i = len(w.Transports) - 1
	}
	return w.Transports[i]
}

// step advances the world by d ms.
func (w *World) step(d int64) {
	w.now += d
	w.Run(w.now)
}

// eventually steps the world in small increments until cond holds,
// failing the test after a generous budget. On the sim backend the
// steps cost nothing; on wall-clock backends they are real time.
func (w *World) eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	const stepMs, budgetMs = 25, 8000
	if cond() {
		return
	}
	for spent := int64(0); spent < budgetMs; spent += stepMs {
		w.step(stepMs)
		if cond() {
			return
		}
	}
	t.Fatalf("condition never held: %s", what)
}

// aggregate sums the per-instance stats: sends count where issued,
// deliveries where the target lives, so only the sum is meaningful on
// a multi-process backend.
func (w *World) aggregate() runtime.TransportStats {
	var out runtime.TransportStats
	for _, tr := range w.Transports {
		s := tr.Stats()
		out.MessagesSent += s.MessagesSent
		out.MessagesDelivered += s.MessagesDelivered
		out.MessagesDropped += s.MessagesDropped
		out.BytesSent += s.BytesSent
		out.RequestsIssued += s.RequestsIssued
		out.RequestsTimedOut += s.RequestsTimedOut
	}
	return out
}

// recorder is a thread-safe test handler.
type recorder struct {
	mu    sync.Mutex
	msgs  []recorded
	onReq func(from runtime.NodeID, req any) (any, error)
	clock runtime.Clock // when set, stamps deliveries with its Now
}

type recorded struct {
	from runtime.NodeID
	msg  any
	at   int64
}

func (r *recorder) HandleMessage(from runtime.NodeID, msg any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	at := int64(-1)
	if r.clock != nil {
		at = r.clock.Now()
	}
	r.msgs = append(r.msgs, recorded{from: from, msg: msg, at: at})
}

func (r *recorder) HandleRequest(from runtime.NodeID, req any) (any, error) {
	r.mu.Lock()
	fn := r.onReq
	r.mu.Unlock()
	if fn != nil {
		return fn(from, req)
	}
	return nil, errors.New("transporttest: no request handler")
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs)
}

func (r *recorder) first() recorded {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.msgs[0]
}

// place builds a placement at an explicit point of the unit square.
func place(topo *topology.Topology, x, y float64) topology.Placement {
	pos := topology.Point{X: x, Y: y}
	return topology.Placement{Pos: pos, Loc: topo.LocalityOf(pos)}
}

// Run executes the full conformance suite against the backend behind
// the factory.
func Run(t *testing.T, f Factory) {
	t.Run("SendDelivers", func(t *testing.T) { testSendDelivers(t, f) })
	t.Run("SendLatency", func(t *testing.T) { testSendLatency(t, f) })
	t.Run("SendToDeadDropped", func(t *testing.T) { testSendToDeadDropped(t, f) })
	t.Run("RequestResponse", func(t *testing.T) { testRequestResponse(t, f) })
	t.Run("RequestAppError", func(t *testing.T) { testRequestAppError(t, f) })
	t.Run("RequestTimeout", func(t *testing.T) { testRequestTimeout(t, f) })
	t.Run("LateDuplicateResponse", func(t *testing.T) { testLateDuplicateResponse(t, f) })
	t.Run("ConnectionSeveredMidRequest", func(t *testing.T) { testConnectionSeveredMidRequest(t, f) })
	t.Run("JoinFailLifecycle", func(t *testing.T) { testJoinFailLifecycle(t, f) })
	t.Run("LossSampling", func(t *testing.T) { testLossSampling(t, f) })
	t.Run("StatsAccounting", func(t *testing.T) { testStatsAccounting(t, f) })
	t.Run("ForEachAliveAscending", func(t *testing.T) { testForEachAlive(t, f) })
}

// RunCodecs executes the conformance suite once per registered wire
// codec. build returns a Factory configured for the named codec; the
// single-process backends have no serialization layer and simply
// ignore the name — running them anyway pins that the contract
// semantics are codec-independent, so a gob run and a binary run of
// the same scenario stay interchangeable.
func RunCodecs(t *testing.T, build func(codec string) Factory) {
	for _, name := range runtime.Codecs() {
		f := build(name)
		t.Run("codec="+name, func(t *testing.T) { Run(t, f) })
	}
}

func build(t *testing.T, f Factory, lossRate float64) *World {
	t.Helper()
	w := f(t, 1, lossRate, 99, Instances)
	if len(w.Transports) == 0 {
		t.Fatal("factory built a world with no transports")
	}
	if w.Topo == nil {
		t.Fatal("factory built a world without its topology")
	}
	if w.Close != nil {
		t.Cleanup(w.Close)
	}
	return w
}

func testSendDelivers(t *testing.T, f Factory) {
	w := build(t, f, 0)
	src, dst := w.at(0), w.at(1)
	a := src.Join(&recorder{}, place(w.Topo, 0.5, 0.5))
	rec := &recorder{clock: dst.Clock()}
	b := dst.Join(rec, place(w.Topo, 0.5, 0.5))

	src.Send(a, b, Ping{N: 7})
	w.eventually(t, "message delivered", func() bool { return rec.count() > 0 })

	got := rec.first()
	if got.from != a {
		t.Errorf("delivered from %d, want %d", got.from, a)
	}
	if p, ok := got.msg.(Ping); !ok || p.N != 7 {
		t.Errorf("delivered %#v, want Ping{7}", got.msg)
	}
	st := w.aggregate()
	if st.MessagesSent < 1 || st.MessagesDelivered < 1 {
		t.Errorf("aggregate stats %+v, want >=1 sent and delivered", st)
	}
}

func testSendLatency(t *testing.T, f Factory) {
	w := build(t, f, 0)
	src, dst := w.at(0), w.at(1)
	// Far corners of the unit square: the modeled latency is
	// substantial, so a backend skipping the latency model fails this
	// even with real network time in the loop.
	a := src.Join(&recorder{}, place(w.Topo, 0.02, 0.02))
	rec := &recorder{clock: dst.Clock()}
	b := dst.Join(rec, place(w.Topo, 0.98, 0.98))

	w.eventually(t, "join mirrored", func() bool { return src.Alive(b) && dst.Alive(a) })
	lat := src.Latency(a, b)
	if lat < w.Topo.Config().MinLatency {
		t.Fatalf("modeled latency %dms below topology floor", lat)
	}
	sentAt := src.Clock().Now()
	src.Send(a, b, Ping{N: 1})
	w.eventually(t, "message delivered", func() bool { return rec.count() > 0 })

	// Clocks of one world start within a round trip of each other, so
	// a small slack absorbs the skew on wall-clock backends; the
	// modeled latency is hundreds of ms.
	const slackMs = 50
	elapsed := rec.first().at - sentAt
	if elapsed < lat-slackMs {
		t.Errorf("delivered after %dms, modeled link latency %dms", elapsed, lat)
	}
}

func testSendToDeadDropped(t *testing.T, f Factory) {
	w := build(t, f, 0)
	src, dst := w.at(0), w.at(1)
	a := src.Join(&recorder{}, place(w.Topo, 0.5, 0.5))
	rec := &recorder{}
	b := dst.Join(rec, place(w.Topo, 0.5, 0.5))
	w.eventually(t, "join mirrored", func() bool { return src.Alive(b) })

	dst.Fail(b)
	w.eventually(t, "failure mirrored", func() bool { return !src.Alive(b) })

	src.Send(a, b, Ping{N: 1})
	w.eventually(t, "drop accounted", func() bool { return w.aggregate().MessagesDropped >= 1 })
	if rec.count() != 0 {
		t.Errorf("dead node received %d message(s)", rec.count())
	}
	if st := w.aggregate(); st.MessagesDelivered != 0 {
		t.Errorf("aggregate stats %+v, want 0 delivered", st)
	}
}

func testRequestResponse(t *testing.T, f Factory) {
	w := build(t, f, 0)
	src, dst := w.at(0), w.at(1)
	a := src.Join(&recorder{}, place(w.Topo, 0.5, 0.5))
	b := dst.Join(&recorder{onReq: func(_ runtime.NodeID, req any) (any, error) {
		return Pong{N: req.(Ping).N + 1}, nil
	}}, place(w.Topo, 0.5, 0.5))
	w.eventually(t, "join mirrored", func() bool { return src.Alive(b) })

	var mu sync.Mutex
	var resp any
	var rerr error
	done := false
	src.Request(a, b, Ping{N: 41}, 5*runtime.Second, func(r any, err error) {
		mu.Lock()
		defer mu.Unlock()
		resp, rerr, done = r, err, true
	})
	w.eventually(t, "request resolved", func() bool { mu.Lock(); defer mu.Unlock(); return done })

	mu.Lock()
	defer mu.Unlock()
	if rerr != nil {
		t.Fatalf("request failed: %v", rerr)
	}
	if p, ok := resp.(Pong); !ok || p.N != 42 {
		t.Fatalf("response %#v, want Pong{42}", resp)
	}
	if st := w.aggregate(); st.RequestsIssued < 1 {
		t.Errorf("aggregate stats %+v, want >=1 request issued", st)
	}
}

func testRequestAppError(t *testing.T, f Factory) {
	w := build(t, f, 0)
	src, dst := w.at(0), w.at(1)
	a := src.Join(&recorder{}, place(w.Topo, 0.5, 0.5))
	b := dst.Join(&recorder{onReq: func(runtime.NodeID, any) (any, error) {
		return nil, errors.New("not my role")
	}}, place(w.Topo, 0.5, 0.5))
	w.eventually(t, "join mirrored", func() bool { return src.Alive(b) })

	var mu sync.Mutex
	var rerr error
	done := false
	src.Request(a, b, Ping{N: 1}, 5*runtime.Second, func(_ any, err error) {
		mu.Lock()
		defer mu.Unlock()
		rerr, done = err, true
	})
	w.eventually(t, "request resolved", func() bool { mu.Lock(); defer mu.Unlock(); return done })

	mu.Lock()
	defer mu.Unlock()
	if rerr == nil {
		t.Fatal("application error did not reach the caller")
	}
	if errors.Is(rerr, runtime.ErrTimeout) {
		t.Fatalf("application error surfaced as timeout: %v", rerr)
	}
	if !strings.Contains(rerr.Error(), "not my role") {
		t.Fatalf("application error lost its message: %v", rerr)
	}
}

func testRequestTimeout(t *testing.T, f Factory) {
	w := build(t, f, 0)
	src, dst := w.at(0), w.at(1)
	a := src.Join(&recorder{}, place(w.Topo, 0.5, 0.5))
	b := dst.Join(&recorder{}, place(w.Topo, 0.5, 0.5))
	w.eventually(t, "join mirrored", func() bool { return src.Alive(b) })
	dst.Fail(b)
	w.eventually(t, "failure mirrored", func() bool { return !src.Alive(b) })

	var mu sync.Mutex
	var rerr error
	done := false
	src.Request(a, b, Ping{N: 1}, 300, func(_ any, err error) {
		mu.Lock()
		defer mu.Unlock()
		rerr, done = err, true
	})
	w.eventually(t, "request timed out", func() bool { mu.Lock(); defer mu.Unlock(); return done })

	mu.Lock()
	defer mu.Unlock()
	if !errors.Is(rerr, runtime.ErrTimeout) {
		t.Fatalf("request to dead node resolved with %v, want ErrTimeout", rerr)
	}
	if st := w.aggregate(); st.RequestsTimedOut < 1 {
		t.Errorf("aggregate stats %+v, want >=1 request timed out", st)
	}
}

// testLateDuplicateResponse pins the stale-response contract: when a
// handler's reply arrives after the requester's timeout already fired,
// the backend must discard it silently — no panic, no double callback,
// and above all no leak into a later request's correlation slot. The
// trap is a backend that keys in-flight requests by something reusable
// (the node pair, say, instead of a unique sequence number): the first
// request's late reply would then resolve the second request with the
// wrong payload.
func testLateDuplicateResponse(t *testing.T, f Factory) {
	w := build(t, f, 0)
	src, dst := w.at(0), w.at(1)
	// Far corners: the modeled one-way latency is large, so a timeout
	// of half of it is guaranteed to fire before the reply's return leg
	// lands — the reply is *in flight* when the requester gives up.
	a := src.Join(&recorder{}, place(w.Topo, 0.02, 0.02))
	b := dst.Join(&recorder{onReq: func(_ runtime.NodeID, req any) (any, error) {
		return Pong{N: req.(Ping).N}, nil
	}}, place(w.Topo, 0.98, 0.98))
	w.eventually(t, "join mirrored", func() bool { return src.Alive(b) && dst.Alive(a) })
	lat := src.Latency(a, b)
	if lat < 100 {
		t.Fatalf("modeled corner-to-corner latency %dms too small to race a timeout against", lat)
	}

	var mu sync.Mutex
	firstCalls := 0
	var firstErr error
	src.Request(a, b, Ping{N: 1}, lat/2, func(_ any, err error) {
		mu.Lock()
		defer mu.Unlock()
		firstCalls++
		firstErr = err
	})
	w.eventually(t, "first request timed out", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstCalls > 0
	})
	mu.Lock()
	if !errors.Is(firstErr, runtime.ErrTimeout) {
		t.Fatalf("first request resolved with %v, want ErrTimeout", firstErr)
	}
	mu.Unlock()

	// Let the orphaned reply complete its return leg (full round trip
	// plus slack) while no request is outstanding: the backend must
	// swallow it without panicking.
	w.step(2*lat + 200)

	// A second request on the same (a, b) pair must resolve with *its*
	// response, untouched by the first request's late reply.
	var resp any
	var rerr error
	secondDone := false
	src.Request(a, b, Ping{N: 2}, 10*runtime.Second, func(r any, err error) {
		mu.Lock()
		defer mu.Unlock()
		resp, rerr, secondDone = r, err, true
	})
	w.eventually(t, "second request resolved", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return secondDone
	})

	mu.Lock()
	defer mu.Unlock()
	if rerr != nil {
		t.Fatalf("second request failed: %v", rerr)
	}
	if p, ok := resp.(Pong); !ok || p.N != 2 {
		t.Fatalf("second request got %#v — the first request's late reply leaked in", resp)
	}
	if firstCalls != 1 {
		t.Fatalf("first request's callback ran %d times, want exactly 1", firstCalls)
	}
}

// testConnectionSeveredMidRequest cuts the target's instance off while
// a request to it is still crossing its modeled link. The requester
// must see one timeout, counted as one, and the request leg must be
// accounted as dropped rather than vanish with the connection.
func testConnectionSeveredMidRequest(t *testing.T, f Factory) {
	w := build(t, f, 0)
	if w.Sever == nil {
		t.Skip("no connection to sever")
	}
	src, dst := w.at(0), w.at(1)
	a := src.Join(&recorder{}, place(w.Topo, 0.02, 0.02))
	b := dst.Join(&recorder{}, place(w.Topo, 0.98, 0.98))
	w.eventually(t, "join mirrored", func() bool { return src.Alive(b) })
	lat := src.Latency(a, b)
	if lat < 100 {
		t.Fatalf("modeled corner-to-corner latency %dms too small to sever a connection within", lat)
	}

	var mu sync.Mutex
	calls := 0
	var rerr error
	src.Request(a, b, Ping{N: 1}, 2*lat+200, func(_ any, err error) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		rerr = err
	})
	w.Sever(1)
	w.eventually(t, "request resolved", func() bool { mu.Lock(); defer mu.Unlock(); return calls > 0 })
	w.step(lat + 200) // room for a second callback, were there one

	mu.Lock()
	defer mu.Unlock()
	if calls != 1 || !errors.Is(rerr, runtime.ErrTimeout) {
		t.Fatalf("callback ran %d time(s), last with %v; want once with ErrTimeout", calls, rerr)
	}
	st := w.aggregate()
	if st.RequestsTimedOut != 1 {
		t.Errorf("aggregate stats %+v, want 1 request timed out", st)
	}
	if st.MessagesSent != st.MessagesDelivered+st.MessagesDropped {
		t.Errorf("aggregate stats %+v: sent is not delivered + dropped", st)
	}
}

func testJoinFailLifecycle(t *testing.T, f Factory) {
	w := build(t, f, 0)
	ids := make([]runtime.NodeID, 3)
	for i := range ids {
		ids[i] = w.at(i).Join(&recorder{}, place(w.Topo, 0.3, 0.3+float64(i)/10))
	}
	for i := range ids {
		for j := range ids {
			if i != j && ids[i] == ids[j] {
				t.Fatalf("duplicate NodeID %d minted by instances %d and %d", ids[i], i, j)
			}
		}
	}
	// Every instance sees every join, then the victim's failure, and
	// still knows the victim's locality after it.
	victim, loc := ids[1], place(w.Topo, 0.3, 0.4).Loc
	sees := func(what string, dead runtime.NodeID) {
		for i, tr := range w.Transports {
			w.eventually(t, fmt.Sprintf("instance %d sees %s", i, what), func() bool {
				for _, id := range ids {
					if tr.Alive(id) != (id != dead) {
						return false
					}
				}
				return true
			})
			if got := tr.Locality(victim); got != loc {
				t.Errorf("instance %d places node %d in locality %d after %s, want %d", i, victim, got, what, loc)
			}
		}
	}
	sees("all joins", runtime.None)
	w.at(1).Fail(victim)
	sees("the failure", victim)
	// Failing a dead node is a no-op.
	w.at(1).Fail(victim)
	sees("a second Fail", victim)
}

func testLossSampling(t *testing.T, f Factory) {
	const lossRate = 0.4
	const n = 150
	w := build(t, f, lossRate)
	src, dst := w.at(0), w.at(1)
	a := src.Join(&recorder{}, place(w.Topo, 0.5, 0.5))
	rec := &recorder{}
	b := dst.Join(rec, place(w.Topo, 0.5, 0.5))
	w.eventually(t, "join mirrored", func() bool { return src.Alive(b) })

	for i := 0; i < n; i++ {
		src.Send(a, b, Ping{N: i})
	}
	w.eventually(t, "all transmissions accounted", func() bool {
		st := w.aggregate()
		return st.MessagesDelivered+st.MessagesDropped == n
	})
	st := w.aggregate()
	if st.MessagesSent != n {
		t.Errorf("sent %d, want %d", st.MessagesSent, n)
	}
	if st.MessagesDropped == 0 || st.MessagesDelivered == 0 {
		t.Errorf("loss rate %.1f over %d sends: %d delivered / %d dropped — sampling looks broken",
			lossRate, n, st.MessagesDelivered, st.MessagesDropped)
	}
	if rec.count() != int(st.MessagesDelivered) {
		t.Errorf("handler saw %d messages, stats say %d delivered", rec.count(), st.MessagesDelivered)
	}
}

func testStatsAccounting(t *testing.T, f Factory) {
	w := build(t, f, 0)
	src, dst := w.at(0), w.at(1)
	a := src.Join(&recorder{}, place(w.Topo, 0.5, 0.5))
	rec := &recorder{}
	b := dst.Join(rec, place(w.Topo, 0.5, 0.5))
	w.eventually(t, "join mirrored", func() bool { return src.Alive(b) })

	src.Send(a, b, Sized{N: 1})
	src.Send(a, b, Ping{N: 2})
	w.eventually(t, "both delivered", func() bool { return rec.count() == 2 })

	st := w.aggregate()
	if st.MessagesSent != 2 || st.MessagesDelivered != 2 {
		t.Errorf("stats %+v, want 2 sent / 2 delivered", st)
	}
	want := uint64(SizedBytes + runtime.DefaultMessageBytes)
	if st.BytesSent != want {
		t.Errorf("BytesSent %d, want %d (Sizer honored + default size)", st.BytesSent, want)
	}
}

// testForEachAlive enumerates the live nodes the way an observer does:
// an ascending scan of the id space through Alive. Every instance must
// find exactly the joined nodes, minted by whichever instance, less the
// failed one — so Alive reads false for ids no instance minted.
func testForEachAlive(t *testing.T, f Factory) {
	w := build(t, f, 0)
	var ids []runtime.NodeID
	for i := 0; i < 6; i++ {
		ids = append(ids, w.at(i%Instances).Join(&recorder{}, place(w.Topo, 0.4, 0.4)))
	}
	last := ids[0]
	for _, id := range ids {
		last = max(last, id)
	}
	scan := func(tr runtime.Transport) []runtime.NodeID {
		var seen []runtime.NodeID
		for id := runtime.NodeID(0); id <= last+1; id++ {
			if tr.Alive(id) {
				seen = append(seen, id)
			}
		}
		return seen
	}
	w.eventually(t, "all joins visible everywhere", func() bool {
		for _, tr := range w.Transports {
			if len(scan(tr)) != len(ids) {
				return false
			}
		}
		return true
	})
	w.at(0).Fail(ids[0])
	w.eventually(t, "failure visible everywhere", func() bool {
		for _, tr := range w.Transports {
			if len(scan(tr)) != len(ids)-1 {
				return false
			}
		}
		return true
	})

	for i, tr := range w.Transports {
		seen := scan(tr)
		if len(seen) != len(ids)-1 {
			t.Errorf("instance %d found %d live nodes, want %d", i, len(seen), len(ids)-1)
		}
		for _, id := range seen {
			if id == ids[0] {
				t.Errorf("instance %d found the failed node alive", i)
			}
		}
		for _, id := range ids[1:] {
			if !tr.Alive(id) {
				t.Errorf("instance %d reads live node %d dead", i, id)
			}
		}
	}
}
