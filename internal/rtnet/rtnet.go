// Package rtnet is the wall-clock loopback backend: the identical
// protocol code that runs on the deterministic simulator executes here
// in real time. The run loop is the shared internal/wallclock Clock
// (real time.Timers, callbacks serialized exactly like the engine), and
// the transport is the same internal/simnet delivery logic driven by
// that clock — per-link latency sampled from the same topology model.
// It registers itself as the "realtime" backend.
//
// Runs are NOT reproducible: wall-clock arrival order replaces the
// engine's (when, seq) total order. Everything else — loss semantics,
// byte accounting, metrics windows — behaves identically.
package rtnet

import (
	"flowercdn/internal/runtime"
	"flowercdn/internal/simnet"
	"flowercdn/internal/topology"
	"flowercdn/internal/wallclock"
)

func init() {
	runtime.RegisterBackend("realtime", func(cfg runtime.BackendConfig) (runtime.Runtime, error) {
		rt := New(cfg.Topo)
		if cfg.LossRate > 0 {
			rt.net.SetLossRate(cfg.LossRate, cfg.LossRNG)
		}
		return rt, nil
	})
}

// Runtime implements runtime.Runtime over the wall clock and the
// in-process loopback transport. The transport is the same delivery
// logic as the deterministic simulation (internal/simnet) — latency
// sampled from the identical topology model, identical loss and
// accounting semantics — but deliveries are scheduled on real
// time.Timers, so a run takes as long as its horizon says.
type Runtime struct {
	clock *wallclock.Clock
	net   *simnet.Network
}

// New builds a realtime backend over the given topology. The clock
// starts at zero immediately.
func New(topo *topology.Topology) *Runtime {
	clock := wallclock.NewClock()
	return &Runtime{clock: clock, net: simnet.New(clock, topo)}
}

// Clock returns the wall clock.
func (r *Runtime) Clock() runtime.Clock { return r.clock }

// Net returns the loopback transport.
func (r *Runtime) Net() runtime.Transport { return r.net }

// Network exposes the concrete transport (loss injection, etc.).
func (r *Runtime) Network() *simnet.Network { return r.net }

// Run drives the loop until the wall clock passes `until` (ms) — i.e.
// it genuinely takes that long — and returns callbacks executed. After
// Run returns no goroutines remain; pending timers are simply never
// executed.
func (r *Runtime) Run(until int64) uint64 { return r.clock.Run(until) }
