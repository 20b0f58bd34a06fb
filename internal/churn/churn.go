// Package churn implements the paper's dynamicity model (Sec. 6.1,
// following Stutzbach & Rejaie's churn characterization): the P2P
// population converges to a target size P because peers arrive in a
// Poisson process whose rate equals the mean departure rate P/m, where
// m is the mean peer uptime. Uptimes are exponential with mean m
// (60 minutes in Table 1 — a very high churn rate), and a peer always
// *fails* when its lifetime expires: it never says goodbye, so every
// departure must be discovered by timeout. A peer may re-join later
// with a fresh identity and a fresh uptime draw.
package churn

import (
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"fmt"
)

// Config controls the churn process.
type Config struct {
	// TargetPopulation is P, the size the population converges to.
	TargetPopulation int
	// MeanUptime is m in milliseconds (Table 1: 60 minutes).
	MeanUptime int64
}

// DefaultConfig returns Table 1's churn parameters for P = 3000.
func DefaultConfig() Config {
	return Config{TargetPopulation: 3000, MeanUptime: 60 * runtime.Minute}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.TargetPopulation < 1 {
		return fmt.Errorf("churn: target population %d", c.TargetPopulation)
	}
	if c.MeanUptime < 1 {
		return fmt.Errorf("churn: mean uptime %d", c.MeanUptime)
	}
	return nil
}

// MeanInterarrival returns the expected gap between arrivals, m/P.
func (c Config) MeanInterarrival() int64 {
	gap := c.MeanUptime / int64(c.TargetPopulation)
	if gap < 1 {
		gap = 1
	}
	return gap
}

// Life is one arrival's session as the churn process sees it: Stop
// fails it when its lifetime expires. Stop may also be reached by other
// means first (a scheduled mass failure), so it must be idempotent.
type Life interface {
	Stop()
}

// Process drives arrivals. For every arrival it calls spawn, which
// creates a protocol peer and returns its Life; the process then stops
// that Life after an exponential lifetime. spawn may return nil to
// decline the arrival (e.g. after the run's cool-down).
//
// An arrival costs the process one closure, the lifetime timer's: the
// arrival timer's callback is bound once, when the process is built,
// and the Life is whatever record the spawner already keeps.
type Process struct {
	cfg   Config
	eng   runtime.Clock
	rng   *rnd.RNG
	spawn func() Life

	arrivals  uint64
	failures  uint64
	ticker    runtime.Timer
	onArrival func() // arrival, bound once
	stopped   bool
}

// NewProcess builds a churn process; Start must be called to begin.
func NewProcess(cfg Config, eng runtime.Clock, rng *rnd.RNG, spawn func() Life) (*Process, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if spawn == nil {
		return nil, fmt.Errorf("churn: nil spawn")
	}
	p := &Process{cfg: cfg, eng: eng, rng: rng, spawn: spawn}
	p.onArrival = p.arrival
	return p, nil
}

// Start schedules the first arrival.
func (p *Process) Start() {
	p.scheduleNext()
}

func (p *Process) scheduleNext() {
	if p.stopped {
		return
	}
	gap := p.rng.ExpDuration(p.cfg.MeanInterarrival())
	p.ticker = p.eng.Schedule(gap, p.onArrival)
}

// arrival is the arrival timer's callback.
func (p *Process) arrival() {
	runtime.DropTimer(&p.ticker) // fired: its record goes back to the clock
	p.arrive()
	p.scheduleNext()
}

func (p *Process) arrive() {
	life := p.spawn()
	if life == nil {
		return
	}
	p.arrivals++
	p.eng.Schedule(p.Lifetime(), func() {
		p.failures++
		life.Stop()
	}).Release()
}

// SpawnInitial performs n immediate arrivals (used to seed the warm-up
// population); each gets its own exponential lifetime like any other
// arrival.
func (p *Process) SpawnInitial(n int) {
	for i := 0; i < n; i++ {
		p.arrive()
	}
}

// Lifetime draws one exponential uptime with mean m.
func (p *Process) Lifetime() int64 {
	return p.rng.ExpDuration(p.cfg.MeanUptime)
}

// Stop halts future arrivals; peers already alive still fail on
// schedule.
func (p *Process) Stop() {
	p.stopped = true
	runtime.DropTimer(&p.ticker)
}

// Arrivals returns the number of successful spawns so far.
func (p *Process) Arrivals() uint64 { return p.arrivals }

// Failures returns the number of lifetime expiries executed so far.
func (p *Process) Failures() uint64 { return p.failures }
