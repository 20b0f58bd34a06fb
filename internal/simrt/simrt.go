// Package simrt is a test and benchmark fixture: the discrete-event
// engine (internal/sim) and the simulated message layer
// (internal/simnet) in one handle, with the engine-level control
// (RunAll, Engine) that package tests and the benchmark's ladder drive
// a deterministic world through. It is the same
// pair the harness builds as its "sim" backend, and like it bit-for-bit
// reproducible for a given seed.
package simrt

import (
	"flowercdn/internal/runtime"
	"flowercdn/internal/sim"
	"flowercdn/internal/simnet"
	"flowercdn/internal/topology"
)

// Runtime implements runtime.Runtime over a fresh engine and network.
// Tests that need engine-level control (RunAll, event counts) use the
// concrete type; everything above the seam sees only the interface.
type Runtime struct {
	eng *sim.Engine
	net *simnet.Network
}

// New builds the deterministic backend over the given topology.
func New(topo *topology.Topology) *Runtime {
	eng := sim.NewEngine()
	return &Runtime{eng: eng, net: simnet.New(eng.Clock(), topo)}
}

// Clock returns the engine viewed through the Clock seam.
func (r *Runtime) Clock() runtime.Clock { return r.eng.Clock() }

// Net returns the simulated message layer viewed through the Transport
// seam.
func (r *Runtime) Net() runtime.Transport { return r.net }

// Run executes events until the virtual clock passes `until` or the
// queue drains, at full speed; it returns the events processed.
func (r *Runtime) Run(until int64) uint64 { return r.eng.Run(until) }

// RunAll executes events until the queue is empty — test-only engine
// control (periodic timers never drain; use Run with a horizon then).
func (r *Runtime) RunAll() uint64 { return r.eng.RunAll() }

// Engine exposes the underlying engine for engine-level assertions.
func (r *Runtime) Engine() *sim.Engine { return r.eng }

// Now, Schedule, At and Every delegate to the clock — conveniences so
// fixtures can drive a deterministic world through one handle.
func (r *Runtime) Now() int64 { return r.eng.Now() }

// Schedule runs fn after delay simulated milliseconds.
func (r *Runtime) Schedule(delay int64, fn func()) runtime.Timer { return r.eng.Schedule(delay, fn) }

// At runs fn at absolute simulated time t.
func (r *Runtime) At(t int64, fn func()) runtime.Timer { return r.eng.At(t, fn) }

// Every schedules fn every period simulated milliseconds.
func (r *Runtime) Every(firstDelay, period int64, fn func()) runtime.Ticker {
	return r.eng.Every(firstDelay, period, fn)
}

// Network exposes the concrete network (loss injection, etc.).
func (r *Runtime) Network() *simnet.Network { return r.net }
