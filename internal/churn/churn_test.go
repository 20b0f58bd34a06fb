package churn

import (
	"math"
	"testing"

	"flowercdn/internal/rnd"
	"flowercdn/internal/sim"
)

// stopFunc is a Life whose Stop is the func itself.
type stopFunc func()

func (f stopFunc) Stop() { f() }

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
	if _, err := NewProcess(Config{}, eng.Clock(), rng, func() Life { return nil }); err == nil {
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
	p, err := NewProcess(cfg, eng.Clock(), rng, func() Life {
		alive++
		return stopFunc(func() { alive-- })
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
	p, _ := NewProcess(Config{TargetPopulation: 100, MeanUptime: sim.Hour}, eng.Clock(), rng, func() Life {
		alive++
		return stopFunc(func() { alive-- })
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
	p, _ := NewProcess(Config{TargetPopulation: 1000, MeanUptime: sim.Hour}, eng.Clock(), rng, func() Life {
		spawned++
		return stopFunc(func() {})
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
	p, _ := NewProcess(Config{TargetPopulation: 100, MeanUptime: sim.Hour}, eng.Clock(), rng, func() Life {
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
	p, _ := NewProcess(DefaultConfig(), eng.Clock(), rng, func() Life { return stopFunc(func() {}) })
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

// lifeRecord is a Life as a spawner keeps it: a record of its own.
type lifeRecord struct{ stops *int }

func (l *lifeRecord) Stop() { *l.stops++ }

// TestArrivalAllocs pins what one arrival costs the churn process: the
// lifetime timer's closure and nothing else — the arrival callback is
// bound once, and the Life is the spawner's own record. Before the
// callback was bound and churn took a Life, an arrival also allocated
// the arrival timer's closure and the spawner's kill func.
func TestArrivalAllocs(t *testing.T) {
	eng := sim.NewEngine()
	stops := 0
	life := &lifeRecord{stops: &stops}
	p, err := NewProcess(Config{TargetPopulation: 100, MeanUptime: sim.Hour}, eng.Clock(), rnd.New(7), func() Life { return life })
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	for i := 0; i < 2000; i++ {
		eng.Step() // the engine's timer slab reaches its size
	}
	before := p.Arrivals()
	if got := testing.AllocsPerRun(1000, func() {
		for p.Arrivals() == before {
			eng.Step()
		}
		before = p.Arrivals()
	}); got != 1 {
		t.Errorf("an arrival allocates %v objects, want 1 (its lifetime closure)", got)
	}
	if stops == 0 {
		t.Fatal("no lifetime expired")
	}
}
