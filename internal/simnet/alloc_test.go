package simnet

import (
	"testing"
	"unsafe"

	"flowercdn/internal/runtime"
	"flowercdn/internal/transporttest"
)

// nopNode discards everything: the alloc guards must measure the
// transport, not a recording handler's slice growth.
type nopNode struct{}

func (nopNode) HandleMessage(runtime.NodeID, any)              {}
func (nopNode) HandleRequest(runtime.NodeID, any) (any, error) { return nil, nil }

// TestSendDeliveryAllocs pins Send plus its delivery at zero
// steady-state allocations: the pooled delivery records (with their
// one-time pre-bound run closures) and the engine's timer slab make a
// message round trip the heap-neutral path the big-cell populations
// depend on. One allocation per message at 100k nodes is hundreds of
// MB of garbage per simulated hour.
func TestSendDeliveryAllocs(t *testing.T) {
	f := newFixture(t)
	a := f.join(nopNode{})
	b := f.join(nopNode{})
	for i := 0; i < 64; i++ { // warm up the delivery pool and slab
		f.net.Send(a, b, "warm")
		f.eng.RunAll()
	}
	avg := testing.AllocsPerRun(100, func() {
		f.net.Send(a, b, "steady")
		f.eng.RunAll()
	})
	if avg > 0 {
		t.Errorf("Send+delivery allocates %.2f objects per message; want 0", avg)
	}
}

// TestMessageAllocBytes holds both message paths to zero bytes, timers
// included: the delivery and RPC records are pooled and every timer the
// layer schedules is released to the engine, which recycles it. The
// object count above cannot see a timer — a slab of 512 is one object —
// so this counts bytes, over more messages than a slab has timers.
func TestMessageAllocBytes(t *testing.T) {
	f := newFixture(t)
	a := f.join(nopNode{})
	b := f.join(nopNode{})
	replied := 0
	onReply := func(any, error) { replied++ }
	const rounds = 2000
	if got := transporttest.AllocBytes(rounds, func() {
		f.net.Send(a, b, "steady")
		f.eng.RunAll()
	}); got != 0 {
		t.Errorf("Send+delivery allocated %d bytes over %d messages; want 0", got, rounds)
	}
	if got := transporttest.AllocBytes(rounds, func() {
		f.net.Request(a, b, "steady", 0, onReply)
		f.eng.RunAll()
	}); got != 0 {
		t.Errorf("Request+reply allocated %d bytes over %d calls; want 0", got, rounds)
	}
	if replied == 0 {
		t.Fatal("no request was answered")
	}
}

// TestRequestAllocsNoDeadline holds a successful RPC on the engine to
// its two legs: the deadline a reply beats is never filed, only its
// place in the engine's order reserved. One timer is pending right
// after Request — the request leg, not it and a deadline — and one
// after the handler ran, the response leg.
func TestRequestAllocsNoDeadline(t *testing.T) {
	f := newFixture(t)
	a := f.join(nopNode{})
	b := f.join(nopNode{})
	replied := 0
	for i := 0; i < 100; i++ {
		f.net.Request(a, b, "steady", 0, func(_ any, err error) {
			if err == nil {
				replied++
			}
		})
		if got := f.eng.Pending(); got != 1 {
			t.Fatalf("%d timers pending after Request; want 1, the request leg", got)
		}
		f.eng.Step()
		if got := f.eng.Pending(); got != 1 {
			t.Fatalf("%d timers pending after the request leg; want 1, the response leg", got)
		}
		f.eng.RunAll()
	}
	if replied != 100 {
		t.Fatalf("%d of 100 requests answered", replied)
	}
}

// TestJoinAllocBytes holds a join storm to the table it leaves behind:
// the node table's two columns grow a page at a time and a page never
// moves, so joining N nodes allocates each node's place and handler
// once — the pages, their directories and the network itself, within
// 2x N nodes' entries. One slice grown by append's quarter steps
// allocated 5.5x at N = 19 599, the table the benchmark's bigcell-join
// cell leaves at seed 11.
func TestJoinAllocBytes(t *testing.T) {
	const nodes = 19599
	f := newFixture(t)
	place := f.topo.Place(f.rng)
	table := uint64(nodes) * uint64(unsafe.Sizeof(nodePlace{})+unsafe.Sizeof(runtime.Handler(nil)))
	got := transporttest.AllocBytes(1, func() {
		net := New(f.eng.Clock(), f.topo)
		for range nodes {
			net.Join(nopNode{}, place)
		}
	})
	t.Logf("joining %d nodes allocated %d bytes, %.2fx their %d bytes of entries", nodes, got, float64(got)/float64(table), table)
	if got > 2*table {
		t.Errorf("joining %d nodes allocated %d bytes, over 2x their %d bytes of entries", nodes, got, table)
	}
}

// TestDeadIDAllocsOnlyItsPlace holds a dead id to its place: once all
// 256 ids of a page have joined and failed, the page keeps no handler
// storage, while Locality and Latency still answer for its ids. A page
// whose ids Join still mints keeps its storage through a moment with
// no live handler. A place holds no pointer, so the collector never
// scans the dead.
func TestDeadIDAllocsOnlyItsPlace(t *testing.T) {
	if got := unsafe.Sizeof(nodePlace{}); got != 24 {
		t.Errorf("a place is %d B, want 24", got)
	}
	f := newFixture(t)
	at := f.topo.Place(f.rng)
	first := f.net.Join(nopNode{}, at)
	f.net.Fail(first)
	if f.net.handlers[0].h == nil {
		t.Fatal("a page Join still mints into dropped its handlers")
	}
	ids := []runtime.NodeID{first}
	for len(ids) < nodePageSize+1 {
		ids = append(ids, f.net.Join(nopNode{}, at))
	}
	for _, id := range ids[1:nodePageSize] {
		f.net.Fail(id)
	}
	if f.net.handlers[0].h != nil {
		t.Error("a page whose 256 ids are all dead keeps its handlers")
	}
	if f.net.handlers[1].h == nil || f.net.handler(ids[nodePageSize]) == nil {
		t.Error("the next page lost its live handler")
	}
	for _, id := range ids[:nodePageSize] {
		if f.net.Alive(id) || f.net.Locality(id) != at.Loc || f.net.Latency(id, ids[nodePageSize]) != f.topo.Latency(at.Pos, at.Pos) {
			t.Fatalf("dead id %d: alive %v, locality %d, latency %d", id, f.net.Alive(id), f.net.Locality(id), f.net.Latency(id, ids[nodePageSize]))
		}
	}
	f.net.Send(ids[nodePageSize], ids[0], "to the dead")
	f.eng.RunAll()
	if st := f.net.Stats(); st.MessagesDropped != 1 || st.MessagesDelivered != 0 {
		t.Errorf("a send to a dead id: %d dropped, %d delivered, want 1 and 0", st.MessagesDropped, st.MessagesDelivered)
	}
}
