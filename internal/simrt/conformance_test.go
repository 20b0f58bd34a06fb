package simrt

import (
	"testing"

	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/topology"
	"flowercdn/internal/transporttest"
)

// TestTransportConformance runs the shared Transport contract suite
// against the deterministic loopback (the simnet reference
// implementation driven by the discrete-event engine). The codec
// parameter is meaningless here — messages never serialize — but the
// suite still runs once per codec name to pin that the contracts are
// codec-independent across the backend matrix.
func TestTransportConformance(t *testing.T) {
	transporttest.RunCodecs(t, func(string) transporttest.Factory {
		return func(t *testing.T, topoSeed uint64, lossRate float64, lossSeed uint64, _ int) *transporttest.World {
			topo := topology.MustNew(topology.DefaultConfig(), rnd.New(topoSeed))
			rt := New(topo)
			if lossRate > 0 {
				rt.Network().SetLossRate(lossRate, rnd.New(lossSeed))
			}
			return &transporttest.World{
				Transports: []runtime.Transport{rt.Net()},
				Topo:       topo,
				Run:        func(until int64) { rt.Run(until) },
			}
		}
	})
}
