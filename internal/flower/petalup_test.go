package flower

import (
	"fmt"
	"testing"

	"flowercdn/internal/content"
	"flowercdn/internal/runtime"
	"flowercdn/internal/topology"
	"flowercdn/internal/workload"
)

// The flash crowd of Sec. 4: a suddenly popular website floods one
// locality with clients. Classic Flower-CDN funnels every arrival into
// one directory peer; PetalUp splits the directory role across the
// D-ring instances d^0, d^1, ... once a view reaches the load limit.

// flashCrowdSpec is Arrivals clients of one (site, locality) joining
// ArrivalGap apart, then Settle more of running.
type flashCrowdSpec struct {
	Site       content.SiteID
	Loc        topology.Locality
	Arrivals   int
	ArrivalGap int64
	Settle     int64
}

// loadReport is the directory load of one petal.
type loadReport struct {
	// Instances is the number of alive directory instances serving the
	// petal; MaxMembers the largest view among them, TotalMembers the sum.
	Instances, MaxMembers, TotalMembers int
	// Promotions counts d^{i+1} recruitments system-wide.
	Promotions int64
}

func (r loadReport) String() string {
	return fmt.Sprintf("instances=%d maxMembers=%d totalMembers=%d promotions=%d",
		r.Instances, r.MaxMembers, r.TotalMembers, r.Promotions)
}

// newFlashCrowdFixture is a fixture on two websites, one of them
// active, with a seeded D-ring and the given load limit (0: classic
// Flower): the world the flash crowd arrives in.
func newFlashCrowdFixture(t *testing.T, seed uint64, loadLimit int) *fixture {
	t.Helper()
	f := newFixtureWith(t, seed, func(c *Config) { c.DirLoadLimit = loadLimit }, nil, func(w *workload.Config) {
		w.Sites = 2
		w.ObjectsPerSite = 100
		w.ActiveSites = 1
	})
	f.seedRing()
	return f
}

// flashCrowd runs spec's arrivals, each an immortal client, through the
// settle period and measures the petal's directory load.
func (f *fixture) flashCrowd(spec flashCrowdSpec) loadReport {
	for i := 0; i < spec.Arrivals; i++ {
		f.eng.Schedule(int64(i)*spec.ArrivalGap, func() { f.spawn(spec.Site, spec.Loc) }).Release()
	}
	f.run(int64(spec.Arrivals)*spec.ArrivalGap + spec.Settle)
	rep := loadReport{Promotions: int64(f.sys.Stats()["dir_promotions"])}
	for _, p := range f.sys.PetalDirectories(spec.Site, spec.Loc) {
		m := p.Directory().MemberCount()
		rep.Instances++
		rep.TotalMembers += m
		rep.MaxMembers = max(rep.MaxMembers, m)
	}
	f.t.Logf("flash crowd of %d: %s", spec.Arrivals, rep)
	return rep
}

func TestFlashCrowdSplitsDirectory(t *testing.T) {
	f := newFlashCrowdFixture(t, 1, 5)
	rep := f.flashCrowd(flashCrowdSpec{
		Site: 0, Loc: 0,
		Arrivals:   30,
		ArrivalGap: 30 * runtime.Second,
		Settle:     1 * runtime.Hour,
	})
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
	f := newFlashCrowdFixture(t, 2, 0) // DirLoadLimit = 0: classic Flower
	rep := f.flashCrowd(flashCrowdSpec{
		Site: 0, Loc: 0,
		Arrivals:   30,
		ArrivalGap: 30 * runtime.Second,
		Settle:     1 * runtime.Hour,
	})
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
	spec := flashCrowdSpec{Site: 0, Loc: 0, Arrivals: 40, ArrivalGap: 20 * runtime.Second, Settle: 90 * runtime.Minute}
	repUp := newFlashCrowdFixture(t, 3, limit).flashCrowd(spec)
	repCl := newFlashCrowdFixture(t, 3, 0).flashCrowd(spec)
	if repUp.MaxMembers >= repCl.MaxMembers {
		t.Fatalf("PetalUp max load %d not below classic %d", repUp.MaxMembers, repCl.MaxMembers)
	}
}
