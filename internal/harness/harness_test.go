package harness

import (
	"strings"
	"testing"

	"flowercdn/internal/dring"
	"flowercdn/internal/proto"
	"flowercdn/internal/protocols"
	"flowercdn/internal/sim"
)

func tinyConfig() Config {
	cfg := QuickConfig()
	cfg.Population = 150
	cfg.Duration = 4 * sim.Hour
	cfg.Workload.Sites = 10
	cfg.Workload.ActiveSites = 2
	cfg.Workload.ObjectsPerSite = 100
	return cfg
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Config){
		func(c *Config) { c.Protocol = "bogus" },
		func(c *Config) { c.Population = 0 },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.SeriesWindow = 0 },
		func(c *Config) { c.MeanUptime = 0 },
		func(c *Config) { c.LocalitySkew = -1 },
		func(c *Config) { c.MessageLossRate = 1 },
		func(c *Config) { c.Workload.ActiveSites = 0 },
	}
	for i, mut := range bads {
		c := DefaultConfig()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := countedRun(Config{}, false); err == nil {
		t.Fatal("Run accepted zero config")
	}
}

// TestBadOptionsFailValidation: driver option checks run at Validate
// time, so a bad knob fails a sweep before any simulation runs.
func TestBadOptionsFailValidation(t *testing.T) {
	cases := []Config{
		func() Config {
			c := tinyConfig()
			c.Protocol = ProtocolPetalUp
			c.Options = map[string]any{"load-limit": -5}
			return c
		}(),
		func() Config {
			c := tinyConfig()
			c.Options = map[string]any{"push-threshold": 2.0}
			return c
		}(),
		func() Config {
			c := tinyConfig()
			c.Protocol = ProtocolSquirrel
			c.Options = map[string]any{"query-timeout": int64(0)}
			return c
		}(),
		func() Config {
			c := tinyConfig()
			c.Protocol = ProtocolChordGlobal
			c.Options = map[string]any{"keepalive-interval": int64(-1)}
			return c
		}(),
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: bad options passed Validate", i)
		}
	}
}

// TestValidateCheckAndNewAgreeOnBadOptions: a driver is one lowering,
// so for each driver's bad-option cases Validate (through Driver.Check)
// and Driver.New report the very same error — there is no second
// validation path that could drift from the first — and the error says
// which knob.
func TestValidateCheckAndNewAgreeOnBadOptions(t *testing.T) {
	cases := []struct {
		p    Protocol
		opts proto.Options
		want string
	}{
		{ProtocolPetalUp, proto.Options{"load-limit": -5}, "load-limit must be positive"},
		{ProtocolFlower, proto.Options{"push-threshold": 2.0}, "push threshold"},
		{ProtocolFlower, proto.Options{"cache-policy": "bogus"}, `unknown cache policy "bogus"`},
		{ProtocolPetalUp, proto.Options{"cache-policy": "lru"}, "cache-capacity >= 1"},
		{ProtocolSquirrel, proto.Options{"query-timeout": int64(0)}, "query-timeout must be positive"},
		{ProtocolChordGlobal, proto.Options{"keepalive-interval": int64(-1)}, "keepalive-interval must be positive"},
		{ProtocolKoordeGlobal, proto.Options{"cache-capacity": 4}, "without a bounding cache-policy"},
		{ProtocolOriginOnly, proto.Options{"cache-policy": "lfu", "cache-capacity": 0}, "cache-capacity >= 1"},
	}
	for _, c := range cases {
		name := string(c.p)
		d, _ := protocols.Lookup(name)
		cerr := d.Check(c.opts)
		if cerr == nil || !strings.Contains(cerr.Error(), c.want) {
			t.Errorf("%s %v: Check = %v, want an error mentioning %q", name, c.opts, cerr, c.want)
			continue
		}
		cfg := tinyConfig()
		cfg.Protocol, cfg.Options = c.p, c.opts
		if verr := cfg.Validate(); verr == nil || verr.Error() != "harness: "+cerr.Error() {
			t.Errorf("%s %v: Validate = %v, want Check's %q wrapped", name, c.opts, verr, cerr)
		}
		if _, nerr := d.New(proto.Env{}, c.opts); nerr == nil || nerr.Error() != cerr.Error() {
			t.Errorf("%s %v: New = %v, want Check's %q", name, c.opts, nerr, cerr)
		}
	}
	// With good options the one thing New still vets is the Env, once,
	// for every protocol alike, naming the protocol.
	for _, d := range protocols.All {
		_, err := d.New(proto.Env{}, nil)
		if err == nil || !strings.Contains(err.Error(), "incomplete Env for "+d.Info.Name) {
			t.Errorf("%s: New with an empty Env = %v", d.Info.Name, err)
		}
	}
}

// A D-ring position packs its locality into dring.LocalityBits, so the
// petal protocols refuse a topology with more localities than that
// holds — as an error from Run, before any peer claims a position —
// and run one with exactly as many.
func TestPetalProtocolsBoundLocalities(t *testing.T) {
	for _, p := range []Protocol{ProtocolFlower, ProtocolPetalUp} {
		cfg := tinyConfig()
		cfg.Protocol = p
		cfg.Topology.Localities = dring.MaxLocalities
		cfg.Population = 100
		cfg.Duration = sim.Hour
		cfg.Workload.Sites, cfg.Workload.ActiveSites = 2, 1
		if res := runCell(t, cfg); res.Queries == 0 {
			t.Errorf("%s, %d localities: no queries", p, cfg.Topology.Localities)
		}
		cfg.Topology.Localities++
		if _, err := countedRun(cfg, false); err == nil || !strings.Contains(err.Error(), "at most 256") {
			t.Errorf("%s, %d localities: Run = %v, want an error naming the limit", p, cfg.Topology.Localities, err)
		}
	}
}

func TestFlowerRunProducesActivity(t *testing.T) {
	res := runCell(t, tinyConfig())
	if res.Protocol != ProtocolFlower {
		t.Fatalf("protocol = %q", res.Protocol)
	}
	if res.Queries == 0 {
		t.Fatal("no queries recorded")
	}
	if res.Hits == 0 {
		t.Fatal("no hits at all after hours of petal life")
	}
	if res.AlivePeers == 0 || res.ProtoStat("alive_directories") == 0 {
		t.Fatalf("population died out: peers=%d dirs=%g", res.AlivePeers, res.ProtoStat("alive_directories"))
	}
	if len(res.Series) == 0 {
		t.Fatal("no hit-ratio series")
	}
	if res.EventsProcessed == 0 || res.NetStats.MessagesSent == 0 {
		t.Fatal("no simulation activity recorded")
	}
}

func TestSquirrelRunProducesActivity(t *testing.T) {
	cfg := tinyConfig()
	cfg.Protocol = ProtocolSquirrel
	res := runCell(t, cfg)
	if res.Queries == 0 {
		t.Fatal("no queries recorded")
	}
	if res.AlivePeers == 0 {
		t.Fatal("population died out")
	}
	if res.MeanLookupMs <= 0 {
		t.Fatal("no lookup latency recorded")
	}
}

func TestPetalUpRunWorks(t *testing.T) {
	cfg := tinyConfig()
	cfg.Protocol = ProtocolPetalUp
	cfg.Options = map[string]any{"load-limit": 5}
	if res := runCell(t, cfg); res.Queries == 0 {
		t.Fatal("no queries recorded")
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	cfg := tinyConfig()
	cfg.Duration = 2 * sim.Hour
	a, b := runCell(t, cfg), rerun(t, cfg)
	if a.Queries != b.Queries || a.Hits != b.Hits || a.EventsProcessed != b.EventsProcessed {
		t.Fatalf("same seed diverged: %d/%d/%d vs %d/%d/%d",
			a.Queries, a.Hits, a.EventsProcessed, b.Queries, b.Hits, b.EventsProcessed)
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	cfg := tinyConfig()
	cfg.Duration = 2 * sim.Hour
	a := runCell(t, cfg)
	cfg.Seed = 999
	b := runCell(t, cfg)
	if a.EventsProcessed == b.EventsProcessed && a.Queries == b.Queries && a.Hits == b.Hits {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestComparisonShape(t *testing.T) {
	// The headline claims at reduced scale: Flower-CDN beats Squirrel on
	// hit ratio under churn, and resolves queries much faster.
	cfg := tinyConfig()
	cfg.Duration = 6 * sim.Hour
	f := runCell(t, cfg)
	cfg.Protocol = ProtocolSquirrel
	s := runCell(t, cfg)
	if f.TailHitRatio <= s.TailHitRatio {
		t.Fatalf("Flower tail hit ratio %.3f not above Squirrel %.3f",
			f.TailHitRatio, s.TailHitRatio)
	}
	if f.MeanLookupMs >= s.MeanLookupMs {
		t.Fatalf("Flower lookup %.0f ms not below Squirrel %.0f ms",
			f.MeanLookupMs, s.MeanLookupMs)
	}
	if f.MeanTransferMs >= s.MeanTransferMs {
		t.Fatalf("Flower transfer %.0f ms not below Squirrel %.0f ms",
			f.MeanTransferMs, s.MeanTransferMs)
	}
}

func TestFormatters(t *testing.T) {
	cfg := tinyConfig()
	cfg.Duration = 2 * sim.Hour
	t1 := FormatTable1(cfg)
	f := runCell(t, cfg)
	cfg.Protocol = ProtocolSquirrel
	s := runCell(t, cfg)
	if !strings.Contains(t1, "Push threshold") || !strings.Contains(t1, "10") {
		t.Fatalf("Table 1 render incomplete:\n%s", t1)
	}
	f3 := FormatFig3(f, s)
	if !strings.Contains(f3, "Flower-CDN") || !strings.Contains(f3, "hour") {
		t.Fatalf("Fig 3 render incomplete:\n%s", f3)
	}
	f4 := FormatFig4(f, s)
	if !strings.Contains(f4, "within 150 ms") {
		t.Fatalf("Fig 4 render incomplete:\n%s", f4)
	}
	f5 := FormatFig5(f, s)
	if !strings.Contains(f5, "within 100 ms") {
		t.Fatalf("Fig 5 render incomplete:\n%s", f5)
	}
	rows := []Table2Row{{Population: cfg.Population, Flower: f, Squirrel: s}}
	t2 := FormatTable2(rows)
	if !strings.Contains(t2, "Squirrel") || !strings.Contains(t2, "Flower-CDN") {
		t.Fatalf("Table 2 render incomplete:\n%s", t2)
	}
	sum := FormatSummary(f)
	if !strings.Contains(sum, "hit ratio") || strings.Contains(sum, "n/a") || strings.Contains(sum, "warning") {
		t.Fatalf("summary render incomplete, or a 2 h run reads as dry:\n%s", sum)
	}
}

// TestDryWorkloadIsReported: a cell run to twice the instant its
// workload ran dry — a 20-object catalog, which every individual holds
// within hours — has a tail with no queries, which reads "n/a", not a
// hit ratio of 0, and its summary warns that the horizon is past the
// drying-up instant.
func TestDryWorkloadIsReported(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workload.ObjectsPerSite = 20
	cfg.Duration = 10 * sim.Hour
	res := runCell(t, cfg)
	if res.DriesUp == 0 || 2*res.DriesUp > cfg.Duration {
		t.Fatalf("workload ran dry at %d ms: not within the first half of the %d ms run", res.DriesUp, cfg.Duration)
	}
	sum := FormatSummary(res)
	if res.TailQueries != 0 || !strings.Contains(sum, "(tail n/a)") {
		t.Errorf("tail of %d queries after the workload ran dry:\n%s", res.TailQueries, sum)
	}
	if !strings.Contains(sum, "warning: the workload ran dry at "+fmtDuration(res.DriesUp)) {
		t.Errorf("no warning that the workload ran dry:\n%s", sum)
	}
}

func TestRunTable2SmallSweep(t *testing.T) {
	cfg := tinyConfig()
	cfg.Duration = 2 * sim.Hour
	pops := []int{100, 200}
	rows, err := RunTable2(cfg, pops)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg.Population = range pops { // RunTable2 calls Run itself: count its runs
		for _, cfg.Protocol = range []Protocol{ProtocolFlower, ProtocolSquirrel} {
			noteRun(cfg, false)
		}
	}
	if len(rows) != 2 || rows[0].Population != 100 || rows[1].Population != 200 {
		t.Fatalf("rows wrong: %+v", rows)
	}
}
