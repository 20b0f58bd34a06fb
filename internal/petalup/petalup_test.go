package petalup

import (
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/simrt"
	"testing"

	"flowercdn/internal/content"
	"flowercdn/internal/flower"
	"flowercdn/internal/metrics"
	"flowercdn/internal/proto"
	"flowercdn/internal/topology"
	"flowercdn/internal/workload"
)

type world struct {
	*simrt.Runtime
	net runtime.Transport
	sys *flower.System
}

func buildWorld(t *testing.T, seed uint64, cfg flower.Config) *world {
	t.Helper()
	rng := rnd.New(seed)
	tcfg := topology.DefaultConfig()
	tcfg.Localities = 2
	topo := topology.MustNew(tcfg, rng.Split("topo"))
	eng := simrt.New(topo)
	net := eng.Net()
	wcfg := workload.DefaultConfig()
	wcfg.Sites = 2
	wcfg.ObjectsPerSite = 100
	wcfg.ActiveSites = 1
	wcfg.QueryMeanInterval = 2 * runtime.Minute
	work, err := workload.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	origins := workload.NewOrigins(work, net, rng.Split("origins"))
	coll := metrics.NewCollector(runtime.Hour)
	cfg.Gossip.Period = 5 * runtime.Minute
	cfg.KeepaliveInterval = 10 * runtime.Minute
	sys, err := flower.NewSystem(cfg, proto.Env{
		Net: net, RNG: rng.Split("flower"), Workload: work, Origins: origins, Metrics: coll,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Seed the D-ring.
	for s := 0; s < wcfg.Sites; s++ {
		for l := 0; l < tcfg.Localities; l++ {
			site, loc := content.SiteID(s), topology.Locality(l)
			eng.Schedule(int64(s*tcfg.Localities+l)*200, func() {
				sys.SpawnSeedDirectory(site, loc)
			})
		}
	}
	eng.Run(eng.Now() + 10*runtime.Minute)
	return &world{Runtime: eng, net: net, sys: sys}
}

func TestConfigPreset(t *testing.T) {
	cfg := Config(10)
	if cfg.DirLoadLimit != 10 {
		t.Fatalf("DirLoadLimit = %d, want 10", cfg.DirLoadLimit)
	}
	if Config(0).DirLoadLimit != DefaultLoadLimit {
		t.Fatal("zero limit should take the default")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecValidation(t *testing.T) {
	if err := DefaultFlashCrowd().Validate(); err != nil {
		t.Fatal(err)
	}
	if (FlashCrowdSpec{Arrivals: 0}).Validate() == nil {
		t.Fatal("zero arrivals accepted")
	}
	if (FlashCrowdSpec{Arrivals: 1, ArrivalGap: -1}).Validate() == nil {
		t.Fatal("negative gap accepted")
	}
	w := buildWorld(t, 99, Config(5))
	if _, err := RunFlashCrowd(w.sys, w, FlashCrowdSpec{Arrivals: 0}); err == nil {
		t.Fatal("RunFlashCrowd accepted invalid spec")
	}
}

func TestFlashCrowdSplitsDirectory(t *testing.T) {
	w := buildWorld(t, 1, Config(5))
	spec := FlashCrowdSpec{
		Site: 0, Loc: 0,
		Arrivals:   30,
		ArrivalGap: 30 * runtime.Second,
		Settle:     1 * runtime.Hour,
	}
	rep, err := RunFlashCrowd(w.sys, w, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Instances < 2 {
		t.Fatalf("flash crowd did not split the directory: %s", rep)
	}
	if rep.Promotions == 0 {
		t.Fatalf("no promotions recorded: %s", rep)
	}
	if rep.TotalMembers == 0 {
		t.Fatalf("no members tracked: %s", rep)
	}
}

func TestClassicFlowerDoesNotSplit(t *testing.T) {
	w := buildWorld(t, 2, flower.DefaultConfig()) // DirLoadLimit = 0
	spec := FlashCrowdSpec{
		Site: 0, Loc: 0,
		Arrivals:   30,
		ArrivalGap: 30 * runtime.Second,
		Settle:     1 * runtime.Hour,
	}
	rep, err := RunFlashCrowd(w.sys, w, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Instances != 1 {
		t.Fatalf("classic Flower grew %d instances, want 1", rep.Instances)
	}
	if rep.Promotions != 0 {
		t.Fatalf("classic Flower promoted instances: %s", rep)
	}
	// The single directory absorbs the whole crowd — the unbounded load
	// PetalUp exists to prevent.
	if rep.MaxMembers < 25 {
		t.Fatalf("single directory should hold most of the crowd, got %d", rep.MaxMembers)
	}
}

func TestPetalUpBoundsPerInstanceLoadBetterThanClassic(t *testing.T) {
	// Comparative claim of Sec. 4: with splitting, the max per-instance
	// view stays near the limit instead of growing with the crowd.
	limit := 6
	wUp := buildWorld(t, 3, Config(limit))
	spec := FlashCrowdSpec{Site: 0, Loc: 0, Arrivals: 40, ArrivalGap: 20 * runtime.Second, Settle: 90 * runtime.Minute}
	repUp, err := RunFlashCrowd(wUp.sys, wUp, spec)
	if err != nil {
		t.Fatal(err)
	}
	wCl := buildWorld(t, 3, flower.DefaultConfig())
	repCl, err := RunFlashCrowd(wCl.sys, wCl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if repUp.MaxMembers >= repCl.MaxMembers {
		t.Fatalf("PetalUp max load %d not below classic %d", repUp.MaxMembers, repCl.MaxMembers)
	}
}

func TestMeasureEmptyPetal(t *testing.T) {
	w := buildWorld(t, 4, Config(5))
	rep := Measure(w.sys, 1, 1) // petal with only its seed directory
	if rep.Instances != 1 {
		t.Fatalf("expected just the seed instance, got %d", rep.Instances)
	}
	if rep.MaxMembers != 0 || rep.TotalMembers != 0 {
		t.Fatalf("empty petal reports members: %s", rep)
	}
}
