// Package petalup packages the PetalUp-CDN configuration (paper
// Sec. 4) and its dedicated experiment: PetalUp is Flower-CDN with the
// per-directory load limit enabled, so that a petal's directory role
// splits across successive D-ring instances d^0, d^1, ... as the petal
// grows. The mechanism itself lives in internal/flower (the scan,
// promotion and old-view seeding paths are shared protocol code, and
// the "petalup" driver is registered there beside "flower"); this
// package provides the preset, the flash-crowd workload that stresses
// it, and the load-bounding measurements DESIGN.md's extension
// experiment reports.
package petalup

import (
	"errors"
	"flowercdn/internal/runtime"
	"fmt"

	"flowercdn/internal/content"
	"flowercdn/internal/flower"
	"flowercdn/internal/proto"
	"flowercdn/internal/topology"
)

// DefaultLoadLimit is the per-instance view limit used by the preset.
// The paper's petals "never surpass 30" members at the simulated
// scales, so a limit of 25 forces splitting to be observable.
const DefaultLoadLimit = 25

// Config returns a Flower-CDN configuration with PetalUp splitting
// enabled at the given load limit (content peers per directory view,
// the load measure of Sec. 4).
func Config(loadLimit int) flower.Config {
	cfg := flower.DefaultConfig()
	if loadLimit <= 0 {
		loadLimit = DefaultLoadLimit
	}
	cfg.DirLoadLimit = loadLimit
	return cfg
}

// FlashCrowdSpec describes the stress workload: Arrivals clients for
// one (site, locality) joining at ArrivalGap intervals — the flash
// crowd a suddenly popular website attracts.
type FlashCrowdSpec struct {
	Site       content.SiteID
	Loc        topology.Locality
	Arrivals   int
	ArrivalGap int64
	// Settle is how long to run after the last arrival.
	Settle int64
}

// DefaultFlashCrowd returns a crowd that overwhelms a single directory
// several times over.
func DefaultFlashCrowd() FlashCrowdSpec {
	return FlashCrowdSpec{
		Site:       0,
		Loc:        0,
		Arrivals:   120,
		ArrivalGap: 20 * runtime.Second,
		Settle:     2 * runtime.Hour,
	}
}

// Validate checks the spec.
func (s FlashCrowdSpec) Validate() error {
	if s.Arrivals < 1 {
		return errors.New("petalup: need at least one arrival")
	}
	if s.ArrivalGap < 0 || s.Settle < 0 {
		return errors.New("petalup: negative durations")
	}
	return nil
}

// LoadReport captures the directory-load outcome of a flash crowd.
type LoadReport struct {
	// Instances is the number of alive directory instances serving the
	// petal at measurement time.
	Instances int
	// MaxMembers is the largest per-instance view.
	MaxMembers int
	// TotalMembers sums members over instances.
	TotalMembers int
	// Promotions counts d^{i+1} recruitments system-wide.
	Promotions uint64
}

func (r LoadReport) String() string {
	return fmt.Sprintf("instances=%d maxMembers=%d totalMembers=%d promotions=%d",
		r.Instances, r.MaxMembers, r.TotalMembers, r.Promotions)
}

// Measure inspects the directory instances of one petal.
func Measure(sys *flower.System, site content.SiteID, loc topology.Locality) LoadReport {
	rep := LoadReport{Promotions: uint64(sys.Stats()["dir_promotions"])}
	for _, p := range sys.PetalDirectories(site, loc) {
		rep.Instances++
		m := p.Directory().MemberCount()
		rep.TotalMembers += m
		if m > rep.MaxMembers {
			rep.MaxMembers = m
		}
	}
	return rep
}

// RunFlashCrowd drives the spec against an existing Flower/PetalUp
// system: it schedules the arrivals, minted from pop and querying on
// queries, on the runtime's clock starting now, runs the backend
// through the settle period, and measures the petal's directory load.
// Every spawned client receives an infinite lifetime — the point is
// load, not churn.
func RunFlashCrowd(sys *flower.System, pop *proto.Population, queries *proto.Queries, rt runtime.Runtime, spec FlashCrowdSpec) (LoadReport, error) {
	if err := spec.Validate(); err != nil {
		return LoadReport{}, err
	}
	clock := rt.Clock()
	for i := 0; i < spec.Arrivals; i++ {
		at := int64(i) * spec.ArrivalGap
		clock.Schedule(at, func() {
			id := pop.At(spec.Site, spec.Loc)
			queries.Start(id, sys.Spawn(id))
		}).Release()
	}
	rt.Run(clock.Now() + int64(spec.Arrivals)*spec.ArrivalGap + spec.Settle)
	return Measure(sys, spec.Site, spec.Loc), nil
}
