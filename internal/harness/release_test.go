package harness

import (
	"testing"

	"flowercdn/internal/proto"
	"flowercdn/internal/protocols"
	"flowercdn/internal/runtime"
	"flowercdn/internal/transporttest"
)

// releaseChecked builds the sim backend with transporttest.ReleaseClock
// between the engine and everything that schedules on it, the message
// layer included, and sets *checked to that clock. Its handles fail t at
// the first call from each site, at once, so the report is out even if
// the misuse goes on to crash the run.
func releaseChecked(t *testing.T, checked **transporttest.CheckedClock) func(runtime.Clock, func(runtime.Clock) runtime.Transport) (runtime.Clock, runtime.Transport) {
	seen := map[string]bool{}
	report := func(v string) {
		if !seen[v] {
			seen[v] = true
			t.Error(v)
		}
	}
	return func(clock runtime.Clock, newNet func(runtime.Clock) runtime.Transport) (runtime.Clock, runtime.Transport) {
		*checked = transporttest.ReleaseClock(clock, report)
		return *checked, newNet(*checked)
	}
}

// TestNoTimerUsedAfterRelease runs every protocol's quick cell, under
// loss so that deadlines fire as well as get cancelled, on a sim backend
// whose timer handles report any call made after Release.
// The transports and the protocols' record-owned timers release what
// they schedule; a Cancel or a second Release that follows would land
// on whatever the clock armed next in that record. Every handle a caller
// drops is released too, or its record never goes back to the clock: at
// the end of the run, with the deployment still reachable through a
// checkpoint, the checked clock reports each handle collected unreleased
// by the file:line that scheduled it. The checked run must also be the
// plain run, event for event: the decorator adds no event and recycling
// changes none; the end-of-run checkpoint is in both.
func TestNoTimerUsedAfterRelease(t *testing.T) {
	for _, name := range protocols.Names() {
		t.Run(name, func(t *testing.T) {
			cfg := QuickConfig()
			cfg.Protocol = Protocol(name)
			cfg.Population = 150
			cfg.Duration = 2 * runtime.Hour
			cfg.MessageLossRate = 0.02
			var checkedClock *transporttest.CheckedClock
			cfg.Checkpoints = []int64{cfg.Duration}
			cfg.OnCheckpoint = func(int64, proto.System) {
				if checkedClock != nil {
					checkedClock.ReportDropped()
				}
			}
			plain, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.buildSim = releaseChecked(t, &checkedClock)
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
