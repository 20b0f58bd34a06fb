package flowercdn

import (
	"slices"
	"strings"
	"testing"
)

// sweepTiny is a CI-sized cell so grids finish in seconds.
func sweepTiny() Config {
	cfg := tiny()
	cfg.Population = 100
	cfg.Hours = 2
	cfg.Sites = 8
	cfg.ObjectsPerSite = 50
	return cfg
}

func TestSeedSet(t *testing.T) {
	got := SeedSet(5, 3)
	if len(got) != 3 || got[0] != 5 || got[1] != 6 || got[2] != 7 {
		t.Fatalf("SeedSet(5, 3) = %v", got)
	}
	if got := SeedSet(1, 0); len(got) != 0 {
		t.Fatalf("SeedSet(1, 0) = %v", got)
	}
}

func TestGridExpansion(t *testing.T) {
	g := Grid{
		Base:        sweepTiny(),
		Protocols:   []Protocol{Flower, Squirrel},
		Populations: []int{100, 200, 300},
	}
	cells := g.Cells()
	if len(cells) != 6 {
		t.Fatalf("expanded %d cells, want 6", len(cells))
	}
	// Protocol-major order, names encode only varying axes.
	if cells[0].Name != "flower/P=100" || cells[5].Name != "squirrel/P=300" {
		t.Fatalf("names: %q ... %q", cells[0].Name, cells[5].Name)
	}
	if cells[4].Config.Protocol != Squirrel || cells[4].Config.Population != 200 {
		t.Fatalf("cell 4 config: %+v", cells[4].Config)
	}
	// Axes left nil inherit the base.
	if cells[0].Config.MeanUptimeMinutes != g.Base.MeanUptimeMinutes {
		t.Fatal("nil axis did not inherit base")
	}

	// A single-valued axis keeps names bare.
	solo := Grid{Base: sweepTiny()}.Cells()
	if len(solo) != 1 || solo[0].Name != "flower" {
		t.Fatalf("solo grid: %+v", solo)
	}
}

func TestSweepFacade(t *testing.T) {
	g := Grid{Base: sweepTiny(), Protocols: []Protocol{Flower, Squirrel}}
	seeds := SeedSet(1, 3)
	res, err := Sweep(g.Cells(), seeds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRuns != 6 || len(res.Cells) != 2 {
		t.Fatalf("runs=%d cells=%d", res.TotalRuns, len(res.Cells))
	}
	fl := res.Cells[0]
	if fl.Protocol != Flower || fl.HitRatio.N != 3 || len(fl.Runs) != 3 {
		t.Fatalf("flower cell: %+v", fl)
	}
	if fl.HitRatio.Mean <= 0 {
		t.Fatal("flower hit ratio zero")
	}
	// Runs are the per-seed results themselves.
	if fl.Runs[0].Queries == 0 || len(fl.Runs[0].Series) == 0 {
		t.Fatal("wrapped run empty")
	}
	if !strings.Contains(res.Table(), "flower") || !strings.Contains(res.CSV(), "hit_mean") {
		t.Fatal("table/CSV render broken")
	}
}

func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	g := Grid{Base: sweepTiny(), Protocols: []Protocol{Flower, Squirrel}}
	seeds := SeedSet(1, 3)
	a, err := Sweep(g.Cells(), seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(g.Cells(), seeds, 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.CSV() != b.CSV() {
		t.Fatalf("CSV differs between worker counts:\n%s\nvs\n%s", a.CSV(), b.CSV())
	}
}

func TestSweepRejectsBadInput(t *testing.T) {
	if _, err := Sweep(nil, SeedSet(1, 2), 1); err == nil {
		t.Fatal("empty grid accepted")
	}
	if _, err := Sweep(Grid{Base: sweepTiny()}.Cells(), nil, 1); err == nil {
		t.Fatal("empty seed set accepted")
	}
	bad := sweepTiny()
	bad.Protocol = "gopherswarm"
	if _, err := Sweep([]SweepCell{{Name: "x", Config: bad}}, SeedSet(1, 1), 1); err == nil {
		t.Fatal("bad protocol accepted")
	}
}

// withScenario is base under the named preset, then the flags in
// after — the order flowerbench applies them in.
func withScenario(t *testing.T, base Config, name string, after ...string) Config {
	t.Helper()
	preset, err := Scenario(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseCell(base, append(preset, after...)...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return cfg
}

func TestScenarios(t *testing.T) {
	base := sweepTiny()

	if same := withScenario(t, base, "table1"); !slices.Equal(same.Cell(), base.Cell()) {
		t.Fatalf("table1 changed config: %+v", same)
	}

	fc := withScenario(t, base, "flash-crowd")
	if fc.ActiveSites != 1 || fc.QueryEveryMinutes >= base.QueryEveryMinutes {
		t.Fatalf("flash crowd preset wrong: %+v", fc)
	}

	if ls := withScenario(t, base, "locality-skew"); ls.LocalitySkew <= 0 {
		t.Fatalf("locality skew preset wrong: %+v", ls)
	}

	if _, err := Scenario("heat-death"); err == nil {
		t.Fatal("unknown scenario accepted")
	}

	// Every listed scenario must apply cleanly and produce a runnable
	// config.
	for s := range scenarios {
		if _, err := withScenario(t, base, s).Lower(); err != nil {
			t.Fatalf("%s: lower: %v", s, err)
		}
	}
}

func TestScenarioRunsEndToEnd(t *testing.T) {
	for _, s := range []string{"flash-crowd", "locality-skew"} {
		res, err := Run(withScenario(t, sweepTiny(), s))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if res.Queries == 0 {
			t.Fatalf("%s: no queries", s)
		}
	}
}

func TestCapacityGridExpansion(t *testing.T) {
	g := Grid{
		Base:            sweepTiny(),
		CacheCapacities: []int{8, 32, 0},
	}
	cells := g.Cells()
	if len(cells) != 3 {
		t.Fatalf("expanded %d cells, want 3", len(cells))
	}
	if cells[0].Name != "flower/cap=8" || cells[2].Name != "flower/cap=inf" {
		t.Fatalf("names: %q ... %q", cells[0].Name, cells[2].Name)
	}
	// Bounded cells default to LRU when the base is unbounded; the 0
	// entry is the unbounded reference cell.
	if cells[0].Config.CachePolicy != "lru" || cells[0].Config.CacheCapacity != 8 {
		t.Fatalf("bounded cell config: %+v", cells[0].Config)
	}
	if cells[2].Config.CachePolicy != "none" || cells[2].Config.CacheCapacity != 0 {
		t.Fatalf("unbounded cell config: %+v", cells[2].Config)
	}
	// A base policy survives the axis.
	base := sweepTiny()
	base.CachePolicy = "lfu"
	lfu := Grid{Base: base, CacheCapacities: []int{8}}.Cells()
	if lfu[0].Config.CachePolicy != "lfu" {
		t.Fatalf("base policy overridden: %+v", lfu[0].Config)
	}
	// Every expanded cell must lower and validate.
	for _, c := range cells {
		if _, err := c.Config.Lower(); err != nil {
			t.Fatalf("cell %q: %v", c.Name, err)
		}
	}
}

func TestCachePressureScenario(t *testing.T) {
	cfg := withScenario(t, sweepTiny(), "cache-pressure")
	if cfg.CachePolicy != "lru" || cfg.CacheCapacity <= 0 {
		t.Fatalf("cache-pressure preset wrong: policy %q capacity %d", cfg.CachePolicy, cfg.CacheCapacity)
	}
	// Explicit policy/capacity flags given after the preset win.
	kept := withScenario(t, sweepTiny(), "cache-pressure", "-cache-policy=size-aware", "-cache-capacity=99")
	if kept.CachePolicy != "size-aware" || kept.CacheCapacity != 99 {
		t.Fatalf("preset clobbered explicit cache settings: %+v", kept)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries == 0 {
		t.Fatal("cache-pressure run produced no queries")
	}
}

// TestCapacitySweepKnee is the façade-level acceptance check behind
// `flowerbench -grid capacity -scenario cache-pressure`: over a small
// capacity grid the flower hit ratio must degrade monotonically as
// capacity shrinks, with the unbounded reference on top.
func TestCapacitySweepKnee(t *testing.T) {
	cells := Grid{Base: withScenario(t, sweepTiny(), "cache-pressure"), CacheCapacities: []int{4, 24, 0}}.Cells()
	res, err := Sweep(cells, SeedSet(1, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("%d cells", len(res.Cells))
	}
	small, medium, unbounded := res.Cells[0], res.Cells[1], res.Cells[2]
	t.Logf("hit ratio: cap4 %.3f, cap24 %.3f, inf %.3f",
		small.HitRatio.Mean, medium.HitRatio.Mean, unbounded.HitRatio.Mean)
	if small.HitRatio.Mean > medium.HitRatio.Mean || medium.HitRatio.Mean > unbounded.HitRatio.Mean {
		t.Fatalf("hit ratio not monotone in capacity: %.3f / %.3f / %.3f",
			small.HitRatio.Mean, medium.HitRatio.Mean, unbounded.HitRatio.Mean)
	}
}
