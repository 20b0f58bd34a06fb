package simnet

import (
	"testing"

	"flowercdn/internal/runtime"
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
