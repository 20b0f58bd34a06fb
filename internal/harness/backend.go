package harness

import (
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/sim"
	"flowercdn/internal/simnet"
	"flowercdn/internal/socknet"
	"flowercdn/internal/topology"
	"flowercdn/internal/wallclock"
)

// backend is a built-in backend: a clock plus the leg that runs on it.
// The loop is the clock's own run control — the engine, or the wall
// clock's run loop.
type backend struct {
	loop  interface{ Run(until int64) uint64 }
	clock runtime.Clock
	net   runtime.Transport
}

func (b *backend) Clock() runtime.Clock   { return b.clock }
func (b *backend) Net() runtime.Transport { return b.net }
func (b *backend) Run(until int64) uint64 { return b.loop.Run(until) }

// newBackend builds the backend cfg names over topo, losing messages at
// cfg.MessageLossRate drawn from lossRNG, and returns with it the
// function that releases it when the run ends. The names are
// runtime.Backends() and whatever runtime.RegisterBackend added.
func newBackend(cfg Config, topo *topology.Topology, lossRNG *rnd.RNG) (runtime.Runtime, func() error, error) {
	noClose := func() error { return nil }
	switch name := cfg.ResolvedBackend(); name {
	case "sim":
		eng := sim.NewEngine()
		newNet := func(clock runtime.Clock) runtime.Transport {
			net := simnet.New(clock, topo)
			net.SetLossRate(cfg.MessageLossRate, lossRNG)
			return net
		}
		if cfg.buildSim != nil {
			clock, net := cfg.buildSim(eng.Clock(), newNet)
			return &backend{loop: eng, clock: clock, net: net}, noClose, nil
		}
		return &backend{loop: eng, clock: eng.Clock(), net: newNet(eng.Clock())}, noClose, nil
	case "socket":
		tr, err := socknet.Dial(socknet.Config{
			Socket:   *cfg.Socket,
			Topo:     topo,
			LossRate: cfg.MessageLossRate,
			LossRNG:  lossRNG,
		})
		if err != nil {
			return nil, nil, err
		}
		// The clock is created only once the mesh is up, so every
		// process's time zero — and therefore its horizon — aligns to
		// within a round trip rather than to process spawn skew.
		clock := wallclock.NewClock()
		tr.Bind(clock)
		return &backend{loop: clock, clock: clock, net: tr}, tr.Close, nil
	default:
		rt, err := runtime.RegisteredBackend(name)(runtime.BackendConfig{
			Topo:     topo,
			LossRate: cfg.MessageLossRate,
			LossRNG:  lossRNG,
		})
		return rt, noClose, err
	}
}
