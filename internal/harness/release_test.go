package harness

import (
	"testing"

	"flowercdn/internal/proto"
	_ "flowercdn/internal/protocols"
	"flowercdn/internal/runtime"
	"flowercdn/internal/sim"
	"flowercdn/internal/simnet"
	"flowercdn/internal/transporttest"
)

// checkedSim is the sim backend rebuilt with transporttest.ReleaseClock
// between the engine and everything that schedules on it, the message
// layer included — the way benchmark/spans decorates a backend.
type checkedSim struct {
	eng   *sim.Engine
	clock runtime.Clock
	net   *simnet.Network
}

func (r *checkedSim) Clock() runtime.Clock   { return r.clock }
func (r *checkedSim) Net() runtime.Transport { return r.net }
func (r *checkedSim) Run(until int64) uint64 { return r.eng.Run(until) }

// checkedRun is the subtest now running on the checked backend: its
// handles fail it at the first call from each site, at once, so the
// report is out even if the misuse goes on to crash the run.
var checkedRun struct {
	t    *testing.T
	seen map[string]bool
}

func reportViolation(v string) {
	if !checkedRun.seen[v] {
		checkedRun.seen[v] = true
		checkedRun.t.Error(v)
	}
}

const checkedBackend = "sim-release-checked"

func init() {
	runtime.RegisterBackend(checkedBackend, func(cfg runtime.BackendConfig) (runtime.Runtime, error) {
		rt := &checkedSim{eng: sim.NewEngine()}
		rt.clock = transporttest.ReleaseClock(rt.eng.Clock(), reportViolation)
		rt.net = simnet.New(rt.clock, cfg.Topo)
		if cfg.LossRate > 0 {
			rt.net.SetLossRate(cfg.LossRate, cfg.LossRNG)
		}
		return rt, nil
	})
}

// TestNoTimerUsedAfterRelease runs every registered protocol's quick
// cell, under loss so that deadlines fire as well as get cancelled, on a
// sim backend whose timer handles report any call made after Release.
// The transports and the protocols' record-owned timers release what
// they schedule; a Cancel or a second Release that follows would land
// on whatever the clock armed next in that record. The checked run must
// also be the plain run, event for event: the decorator adds no event
// and recycling changes none.
func TestNoTimerUsedAfterRelease(t *testing.T) {
	for _, name := range proto.Names() {
		t.Run(name, func(t *testing.T) {
			cfg := QuickConfig()
			cfg.Protocol = Protocol(name)
			cfg.Population = 150
			cfg.Duration = 2 * runtime.Hour
			cfg.MessageLossRate = 0.02
			plain, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkedRun.t, checkedRun.seen = t, map[string]bool{}
			cfg.Backend = checkedBackend
			checked, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if checked.Fingerprint != plain.Fingerprint || checked.EventsProcessed != plain.EventsProcessed {
				t.Fatalf("checked run %016x (%d events), plain run %016x (%d events)",
					checked.Fingerprint, checked.EventsProcessed, plain.Fingerprint, plain.EventsProcessed)
			}
			if plain.Queries == 0 {
				t.Fatal("no queries: the cell exercised nothing")
			}
		})
	}
}
