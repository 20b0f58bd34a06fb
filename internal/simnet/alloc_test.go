package simnet

import (
	"testing"

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
