package churn

import (
	"math"
	"testing"

	"flowercdn/internal/rnd"
	"flowercdn/internal/sim"
)

func TestConfigValidation(t *testing.T) {
	if err := (Config{TargetPopulation: 0, MeanUptime: 1}).Validate(); err == nil {
		t.Fatal("zero population accepted")
	}
	if err := (Config{TargetPopulation: 10, MeanUptime: 0}).Validate(); err == nil {
		t.Fatal("zero uptime accepted")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMeanInterarrival(t *testing.T) {
	c := Config{TargetPopulation: 3000, MeanUptime: 60 * sim.Minute}
	if got := c.MeanInterarrival(); got != 1200 {
		t.Fatalf("interarrival = %d ms, want 1200 (60 min / 3000)", got)
	}
	// Degenerate: enormous population still yields >= 1ms gaps.
	c2 := Config{TargetPopulation: 1 << 40, MeanUptime: 10}
	if c2.MeanInterarrival() < 1 {
		t.Fatal("interarrival below 1 ms")
	}
}

func TestNewProcessValidation(t *testing.T) {
	eng := sim.NewEngine()
	rng := rnd.New(1)
	if _, err := NewProcess(Config{}, eng.Clock(), rng, func() func() { return nil }); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewProcess(DefaultConfig(), eng.Clock(), rng, nil); err == nil {
		t.Fatal("nil spawn accepted")
	}
}

func TestPopulationConvergesToTarget(t *testing.T) {
	// The defining property of the model: starting empty, the alive
	// population converges to ~P and stays there.
	eng := sim.NewEngine()
	rng := rnd.New(2)
	cfg := Config{TargetPopulation: 500, MeanUptime: 30 * sim.Minute}
	alive := 0
	p, err := NewProcess(cfg, eng.Clock(), rng, func() func() {
		alive++
		return func() { alive-- }
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	// After several mean lifetimes the process is in steady state.
	eng.Run(4 * 30 * sim.Minute)
	got := alive
	if math.Abs(float64(got)-500) > 100 {
		t.Fatalf("population %d after warm-up, want ~500", got)
	}
	// Sample later; still near target.
	eng.Run(eng.Now() + 2*30*sim.Minute)
	if math.Abs(float64(alive)-500) > 100 {
		t.Fatalf("population %d drifted from target 500", alive)
	}
}

func TestSpawnInitialSeedsImmediately(t *testing.T) {
	eng := sim.NewEngine()
	rng := rnd.New(3)
	alive := 0
	p, _ := NewProcess(Config{TargetPopulation: 100, MeanUptime: sim.Hour}, eng.Clock(), rng, func() func() {
		alive++
		return func() { alive-- }
	})
	p.SpawnInitial(60)
	if alive != 60 {
		t.Fatalf("alive = %d right after SpawnInitial, want 60", alive)
	}
	if p.Arrivals() != 60 {
		t.Fatalf("Arrivals = %d, want 60", p.Arrivals())
	}
	// Their lifetimes expire eventually.
	eng.Run(20 * sim.Hour)
	if alive != 0 {
		t.Fatalf("alive = %d after 20 mean lifetimes with no new arrivals", alive)
	}
	if p.Failures() != 60 {
		t.Fatalf("Failures = %d, want 60", p.Failures())
	}
}

func TestStopHaltsArrivals(t *testing.T) {
	eng := sim.NewEngine()
	rng := rnd.New(4)
	spawned := 0
	p, _ := NewProcess(Config{TargetPopulation: 1000, MeanUptime: sim.Hour}, eng.Clock(), rng, func() func() {
		spawned++
		return func() {}
	})
	p.Start()
	eng.Run(10 * sim.Minute)
	p.Stop()
	before := spawned
	eng.Run(eng.Now() + sim.Hour)
	if spawned != before {
		t.Fatalf("arrivals continued after Stop: %d -> %d", before, spawned)
	}
}

func TestNilKillDeclinesArrival(t *testing.T) {
	eng := sim.NewEngine()
	rng := rnd.New(5)
	p, _ := NewProcess(Config{TargetPopulation: 100, MeanUptime: sim.Hour}, eng.Clock(), rng, func() func() {
		return nil // decline every arrival
	})
	p.SpawnInitial(10)
	if p.Arrivals() != 0 {
		t.Fatalf("declined arrivals counted: %d", p.Arrivals())
	}
	eng.Run(2 * sim.Hour)
	if p.Failures() != 0 {
		t.Fatal("declined arrivals produced failures")
	}
}

func TestLifetimeDistribution(t *testing.T) {
	eng := sim.NewEngine()
	rng := rnd.New(6)
	p, _ := NewProcess(DefaultConfig(), eng.Clock(), rng, func() func() { return func() {} })
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		l := p.Lifetime()
		if l < 1 {
			t.Fatal("non-positive lifetime")
		}
		sum += float64(l)
	}
	mean := sum / n
	want := float64(60 * sim.Minute)
	if math.Abs(mean-want) > 0.05*want {
		t.Fatalf("mean lifetime %.0f, want ~%.0f", mean, want)
	}
}
