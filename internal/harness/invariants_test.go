package harness

import (
	"fmt"
	"testing"

	"flowercdn/internal/proto"
	"flowercdn/internal/ringcheck"
	"flowercdn/internal/sim"
)

// The ring-correctness invariant suite: every ring-structured
// deployment must satisfy Zave's Chord invariants — one ring, ordered,
// appendages connected — at checkpoints of deterministic runs under
// adversarial churn schedules layered on top of the background Poisson
// churn. `make invariants-smoke` runs exactly this test.

// invariantSchedules are the adversarial churn shapes, all against a
// 70-peer population: event times and checkpoint times in run-ms.
// Checkpoints sit ≥30 simulated minutes after the nearest event so the
// verdict is about self-repair, not about mid-failure turbulence.
var invariantSchedules = []struct {
	name        string
	events      []ChurnEvent
	checkpoints []int64
}{
	{
		name:        "mass-join",
		events:      []ChurnEvent{{At: 2 * sim.Hour, Join: 70}},
		checkpoints: []int64{90 * sim.Minute, 3 * sim.Hour, 5 * sim.Hour},
	},
	{
		name:        "mass-fail",
		events:      []ChurnEvent{{At: 2 * sim.Hour, FailFraction: 0.30}},
		checkpoints: []int64{90 * sim.Minute, 3 * sim.Hour, 5 * sim.Hour},
	},
	{
		name: "flapping",
		events: []ChurnEvent{
			{At: 2 * sim.Hour, FailFraction: 0.15},
			{At: 150 * sim.Minute, Join: 25},
			{At: 3 * sim.Hour, FailFraction: 0.15},
			{At: 210 * sim.Minute, Join: 25},
		},
		checkpoints: []int64{90 * sim.Minute, 5 * sim.Hour},
	},
	{
		name: "partition-heal",
		events: []ChurnEvent{
			{At: 2 * sim.Hour, FailFraction: 0.40},
			{At: 210 * sim.Minute, Join: 40},
		},
		checkpoints: []int64{90 * sim.Minute, 3 * sim.Hour, 5 * sim.Hour},
	},
}

// invariantProtocols maps each ring deployment to its oracle options
// (koorde adds the de Bruijn pointer check at its default degree).
var invariantProtocols = []struct {
	proto Protocol
	opts  ringcheck.Options
}{
	{ProtocolFlower, ringcheck.Options{}},
	{ProtocolSquirrel, ringcheck.Options{}},
	{ProtocolChordGlobal, ringcheck.Options{}},
	{ProtocolKoordeGlobal, ringcheck.Options{DegreeBits: 4}},
}

func invariantConfig(p Protocol) Config {
	cfg := QuickConfig()
	cfg.Protocol = p
	cfg.Population = 70
	cfg.Duration = 6 * sim.Hour
	cfg.Workload.Sites = 6
	cfg.Workload.ActiveSites = 3
	cfg.Workload.ObjectsPerSite = 60
	cfg.Topology.Localities = 3
	// Background churn stays mild so the scheduled events dominate the
	// ring's stress.
	cfg.MeanUptime = 10 * sim.Hour
	return cfg
}

func TestRingInvariantsUnderChurn(t *testing.T) {
	for _, pc := range invariantProtocols {
		for _, sched := range invariantSchedules {
			t.Run(fmt.Sprintf("%s/%s", pc.proto, sched.name), func(t *testing.T) {
				cfg := invariantConfig(pc.proto)
				cfg.ChurnSchedule = sched.events
				cfg.Checkpoints = sched.checkpoints

				type snapshot struct {
					at  int64
					rep ringcheck.Report
				}
				var snaps []snapshot
				cfg.OnCheckpoint = func(now int64, sys proto.System) {
					insp, ok := sys.(proto.RingInspector)
					if !ok {
						t.Errorf("%s does not implement proto.RingInspector", pc.proto)
						return
					}
					snaps = append(snaps, snapshot{at: now, rep: ringcheck.Check(insp.RingMembers(), pc.opts)})
				}
				res := runCell(t, cfg)
				if len(snaps) != len(sched.checkpoints) {
					t.Fatalf("took %d snapshots, want %d", len(snaps), len(sched.checkpoints))
				}
				for _, s := range snaps {
					for _, v := range s.rep.Violations {
						t.Errorf("t=%dh%02dm: %s", s.at/sim.Hour, s.at%sim.Hour/sim.Minute, v)
					}
					if s.rep.RingSize < 3 {
						t.Errorf("t=%dm: ring collapsed to %d members (%d in snapshot)",
							s.at/sim.Minute, s.rep.RingSize, s.rep.Members)
					}
				}
				if res.AlivePeers == 0 {
					t.Fatal("population died out")
				}
				// The run is still a working CDN after the schedule.
				if res.Queries == 0 {
					t.Fatal("no queries issued")
				}
			})
		}
	}
}

// TestChurnScheduleActuallyChurns is the harness-level contract: a
// mass failure visibly drops the population and a mass join visibly
// raises it, and the kill bookkeeping survives the race between
// scheduled failures and the sessions' own lifetime timers.
func TestChurnScheduleActuallyChurns(t *testing.T) {
	base := invariantConfig(ProtocolSquirrel)
	base.Checkpoints = []int64{110 * sim.Minute, 130 * sim.Minute}

	var sizes []int
	base.OnCheckpoint = func(_ int64, sys proto.System) {
		sizes = append(sizes, len(sys.(proto.RingInspector).RingMembers()))
	}

	fail := base
	fail.ChurnSchedule = []ChurnEvent{{At: 2 * sim.Hour, FailFraction: 0.5}}
	runCell(t, fail)
	if len(sizes) != 2 || sizes[1] >= sizes[0] {
		t.Fatalf("mass failure did not shrink the ring: %v", sizes)
	}

	sizes = nil
	join := base
	join.ChurnSchedule = []ChurnEvent{{At: 2 * sim.Hour, Join: 120}}
	runCell(t, join)
	if len(sizes) != 2 || sizes[1] <= sizes[0] {
		t.Fatalf("mass join did not grow the ring: %v", sizes)
	}
}
