package simnet_test

import (
	"testing"

	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/sim"
	"flowercdn/internal/simnet"
	"flowercdn/internal/topology"
	"flowercdn/internal/transporttest"
	"flowercdn/internal/wallclock"
)

// clocks are the two clocks the network runs on, each the other half of
// a built-in backend: the discrete-event engine ("sim") and the wall
// clock ("socket", for its same-process legs). Every test
// in this file runs once per clock. On the wall clock a step costs real
// time, which is the slow-but-honest leg of the matrix.
var clocks = []struct {
	name string
	// realTime rows run their codec legs side by side rather than one
	// after the other: they sleep through their steps.
	realTime bool
	// start builds the clock and returns it with its run control.
	start func() (runtime.Clock, func(until int64) uint64)
}{
	{"sim", false, func() (runtime.Clock, func(int64) uint64) {
		eng := sim.NewEngine()
		return eng.Clock(), eng.Run
	}},
	{"wallclock", true, func() (runtime.Clock, func(int64) uint64) {
		clock := wallclock.NewClock()
		return clock, clock.Run
	}},
}

// TestLoopbackDelivery: a Send arrives after the topology's link
// latency, and the accounting counts it once sent and once delivered.
func TestLoopbackDelivery(t *testing.T) {
	for _, c := range clocks {
		t.Run(c.name, func(t *testing.T) {
			rng := rnd.New(1)
			topo := topology.MustNew(topology.DefaultConfig(), rng)
			clock, run := c.start()
			net := simnet.New(clock, topo)

			var deliveredAt int64 = -1
			a := net.Join(handlerFunc{}, topo.Place(rng))
			b := net.Join(handlerFunc{onMsg: func() { deliveredAt = clock.Now() }}, topo.Place(rng))

			net.Send(a, b, "ping")
			lat := net.Latency(a, b)
			run(lat + 200)

			if deliveredAt < 0 {
				t.Fatal("message never delivered")
			}
			if deliveredAt < lat {
				t.Fatalf("delivered at %dms, before the %dms link latency", deliveredAt, lat)
			}
			st := net.Stats()
			if st.MessagesSent != 1 || st.MessagesDelivered != 1 {
				t.Fatalf("stats %+v, want 1 sent / 1 delivered", st)
			}
		})
	}
}

// TestLoopbackRequest checks the RPC round trip.
func TestLoopbackRequest(t *testing.T) {
	for _, c := range clocks {
		t.Run(c.name, func(t *testing.T) {
			rng := rnd.New(2)
			topo := topology.MustNew(topology.DefaultConfig(), rng)
			clock, run := c.start()
			net := simnet.New(clock, topo)

			a := net.Join(handlerFunc{}, topo.Place(rng))
			b := net.Join(handlerFunc{onReq: func(req any) (any, error) { return "pong", nil }}, topo.Place(rng))

			var resp any
			var rerr error
			done := false
			net.Request(a, b, "ping", 2*runtime.Second, func(r any, err error) {
				resp, rerr, done = r, err, true
			})
			run(2*net.Latency(a, b) + 300)

			if !done {
				t.Fatal("request callback never ran")
			}
			if rerr != nil || resp != "pong" {
				t.Fatalf("resp=%v err=%v, want pong/nil", resp, rerr)
			}
		})
	}
}

// TestTransportConformance runs the shared Transport contract suite
// against the in-process network on each clock. Messages never
// serialize, so the codec legs are one suite twice over; running both
// pins that the contracts are codec-independent across the backend
// matrix. The per-codec matrix that means something is
// internal/socknet's.
func TestTransportConformance(t *testing.T) {
	for _, c := range clocks {
		factory := func(t *testing.T, topoSeed uint64, lossRate float64, lossSeed uint64, _ int) *transporttest.World {
			topo := topology.MustNew(topology.DefaultConfig(), rnd.New(topoSeed))
			clock, run := c.start()
			net := simnet.New(clock, topo)
			if lossRate > 0 {
				net.SetLossRate(lossRate, rnd.New(lossSeed))
			}
			return &transporttest.World{
				Transports: []runtime.Transport{net},
				Topo:       topo,
				Run:        func(until int64) { run(until) },
			}
		}
		t.Run(c.name, func(t *testing.T) {
			for _, codec := range runtime.Codecs() {
				t.Run("codec="+codec, func(t *testing.T) {
					if c.realTime {
						t.Parallel()
					}
					transporttest.Run(t, factory)
				})
			}
		})
	}
}

type handlerFunc struct {
	onMsg func()
	onReq func(req any) (any, error)
}

func (h handlerFunc) HandleMessage(runtime.NodeID, any) {
	if h.onMsg != nil {
		h.onMsg()
	}
}

func (h handlerFunc) HandleRequest(_ runtime.NodeID, req any) (any, error) {
	if h.onReq != nil {
		return h.onReq(req)
	}
	return nil, nil
}
