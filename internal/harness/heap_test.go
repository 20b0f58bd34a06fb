package harness

import (
	goruntime "runtime"
	"testing"

	"flowercdn/internal/proto"
	"flowercdn/internal/runtime"
)

// liveHeap is the heap still reachable after a forced collection.
func liveHeap() uint64 {
	goruntime.GC()
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestLiveHeapIsFlatInSimulatedTime: under the paper's churn model every
// re-join is a fresh network identity, so a run spawns about one session
// per population slot per simulated hour; a dead session that stays
// reachable — a roster that only appends, a ticker nobody cancelled, a
// kill closure a fired timer's session still holds — makes the live
// heap grow linearly with simulated time. Every protocol's quick cell
// is weighed (with the deployment live, through OnCheckpoint) at T and
// at 4T: what the run holds at 4T may be at most 2.5x what it held at
// T. With dead peers reachable the ratio is 2.7–3.2x on every protocol;
// what legitimately still grows is stores filling and the pool of
// individuals reaching 1.3 P, which is why the bound is not 1.
//
// Not parallel: the measurement is the process's heap.
func TestLiveHeapIsFlatInSimulatedTime(t *testing.T) {
	const T = 3 * runtime.Hour
	for _, p := range []Protocol{ProtocolFlower, ProtocolPetalUp, ProtocolSquirrel,
		ProtocolChordGlobal, ProtocolKoordeGlobal, ProtocolOriginOnly} {
		t.Run(string(p), func(t *testing.T) {
			cfg := QuickConfig()
			cfg.Protocol = p
			cfg.Population = 150
			cfg.Duration = 4*T + runtime.Minute
			cfg.Checkpoints = []int64{T, 4 * T}
			var held []float64
			base := liveHeap()
			cfg.OnCheckpoint = func(int64, proto.System) {
				held = append(held, float64(liveHeap())-float64(base))
			}
			runCell(t, cfg)
			if len(held) != 2 || held[0] <= 0 {
				t.Fatalf("checkpoints weighed %v", held)
			}
			nodes := float64(cfg.Population)
			t.Logf("run holds %.0f B/node at %d h, %.0f B/node at %d h (%.2fx)",
				held[0]/nodes, T/runtime.Hour, held[1]/nodes, 4*T/runtime.Hour, held[1]/held[0])
			if held[1] > 2.5*held[0] {
				t.Errorf("live heap grew %.2fx between %d h and %d h: dead peers are staying reachable",
					held[1]/held[0], T/runtime.Hour, 4*T/runtime.Hour)
			}
		})
	}
}
