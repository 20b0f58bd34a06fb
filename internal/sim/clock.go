package sim

import "flowercdn/internal/runtime"

// This file adapts the engine to the backend-agnostic runtime.Clock
// seam. *Timer and *PeriodicTimer already satisfy runtime.Timer and
// runtime.Ticker structurally, so the adapter only has to re-type the
// return values; no per-call allocation happens beyond the interface
// headers.

// engineClock adapts *Engine to runtime.Clock.
type engineClock struct {
	eng *Engine
}

func (c engineClock) Now() int64 { return c.eng.Now() }

func (c engineClock) Schedule(delay int64, fn func()) runtime.Timer {
	return c.eng.Schedule(delay, fn)
}

func (c engineClock) At(t int64, fn func()) runtime.Timer {
	return c.eng.At(t, fn)
}

func (c engineClock) Every(firstDelay, period int64, fn func()) runtime.Ticker {
	return c.eng.Every(firstDelay, period, fn)
}

func (c engineClock) Stop() { c.eng.Stop() }

// Reserve and AtReserved offer the engine's late filing (Engine.Reserve)
// to a caller that holds only the clock: a transport finds them with a
// type assertion. The wall clock has neither.
func (c engineClock) Reserve() uint64 { return c.eng.Reserve() }

func (c engineClock) AtReserved(t int64, seq uint64, fn func()) runtime.Timer {
	return c.eng.AtReserved(t, seq, fn)
}

// Clock returns the engine viewed through the runtime.Clock seam — the
// reference deterministic clock implementation.
func (e *Engine) Clock() runtime.Clock { return engineClock{eng: e} }
