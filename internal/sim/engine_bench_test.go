package sim

// What these three report for the timing wheel, and for the binary heap
// it replaced (PR 12; both binaries built with `go test -c` and run
// alternately three times on the 2-core box, -benchtime 2000000x,
// -cpu 2; all 0 allocs/op):
//
//	                  pending timers            heap ns/op   wheel ns/op
//	ScheduleRun       0..1024 one-shots, <1 s   214-248      57-80
//	ScheduleCancel    0..1024 cancelled, 1 s    156-190      56-62
//	PeriodicTimers    64 tickers of 100 ms      95-106       20-28
//
// These queues are shallow, short-dated and hot in cache; a simulated
// cell holds a thousand or more timers, most of them periodic and tens
// of seconds ahead, between callbacks that evict the queue from the
// cache. What the engine costs there is what the repo benchmark's traced
// `ring-steady` run reports (benchmark/README.md), not these numbers.
// Over ten parent/change pairs, seeds 1-10, at a median queue depth of
// 1250-1570 (medians, with the range):
//
//	                                                      heap            wheel
//	sim.ladder_ns_per_event (bare engine at that depth)   243 (219-274)   78 (69-166)
//	(sim.pop.self_s + sim.push.self_s) / sim.events, ns   581 (525-834)   256 (229-372)
//
// The second row includes what the benchmark's own clock decorator
// spends inside the sim.push span wrapping each callback, which no
// engine can take away.

import (
	"testing"

	"flowercdn/internal/rnd"
)

// BenchmarkScheduleRun measures raw one-shot event throughput: schedule
// batches and drain them, the pattern every protocol message reduces to.
func BenchmarkScheduleRun(b *testing.B) {
	eng := NewEngine()
	rng := rnd.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Schedule(rng.Int63n(1000), func() {})
		if i%1024 == 1023 {
			eng.Run(eng.Now() + 1000)
		}
	}
	eng.RunAll()
}

// BenchmarkScheduleCancel measures the schedule-then-cancel churn that
// query timeouts and RPC deadlines produce (most timers never fire).
func BenchmarkScheduleCancel(b *testing.B) {
	eng := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := eng.Schedule(1000, func() {})
		t.Cancel()
		if i%1024 == 1023 {
			eng.Run(eng.Now() + 1)
		}
	}
	eng.RunAll()
}

// BenchmarkPeriodicTimers measures the maintenance-loop pattern: many
// long-lived periodic timers firing over and over (Chord stabilize,
// finger pings, keepalives). Per-firing cost is what matters.
func BenchmarkPeriodicTimers(b *testing.B) {
	eng := NewEngine()
	const timers = 64
	fired := 0
	for i := 0; i < timers; i++ {
		eng.Every(int64(i), 100, func() { fired++ })
	}
	b.ReportAllocs()
	b.ResetTimer()
	// Each Run window fires every periodic timer once per 100 ms.
	for fired < b.N {
		eng.Run(eng.Now() + 100)
	}
}
