package rtnet

import (
	"testing"

	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/topology"
	"flowercdn/internal/transporttest"
)

// TestTransportConformance runs the shared Transport contract suite
// against the wall-clock loopback. Steps cost real time here, so the
// suite is the slow-but-honest leg of the contract matrix. Messages
// never serialize, so the codec legs (kept under RunCodecs' names) are
// one suite twice over on independent clocks: they sleep through their
// steps side by side rather than one after the other. The per-codec
// matrix that means something is internal/socknet's.
func TestTransportConformance(t *testing.T) {
	factory := func(t *testing.T, topoSeed uint64, lossRate float64, lossSeed uint64, _ int) *transporttest.World {
		topo := topology.MustNew(topology.DefaultConfig(), rnd.New(topoSeed))
		rt := New(topo)
		if lossRate > 0 {
			rt.Network().SetLossRate(lossRate, rnd.New(lossSeed))
		}
		return &transporttest.World{
			Transports: []runtime.Transport{rt.Net()},
			Run:        func(until int64) { rt.Run(until) },
		}
	}
	for _, codec := range runtime.Codecs() {
		t.Run("codec="+codec, func(t *testing.T) {
			t.Parallel()
			transporttest.Run(t, factory)
		})
	}
}
