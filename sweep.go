package flowercdn

import (
	"fmt"
	"strings"

	"flowercdn/internal/sweep"
)

// SweepCell is one grid point of a sweep: a named Config. The Seed
// field of the config is ignored; the sweep substitutes each seed of
// the seed set in turn.
type SweepCell struct {
	Name   string
	Config Config
}

// SweepCellResult aggregates one cell over every seed: the paper's
// metrics as mean / stddev / 95% CI (metrics.Stat), plus the per-seed
// Results in Runs, index-aligned with Seeds. After a DistSweepCoordinator
// each Runs[i] carries its Summary and nothing else — the rest of a
// Result stays in the worker process that ran it.
type SweepCellResult = sweep.CellResult

// SweepResult is the outcome of a Sweep; Table, CSV and SeriesCSV render
// it (flowerbench -csv / -series-csv write the latter two). Its
// aggregates depend only on the grid and seed set — never on the worker
// count.
type SweepResult = sweep.Result

// Sweep runs every cell under every seed, fanning the independent
// simulations out over at most workers goroutines (workers <= 0 uses
// GOMAXPROCS). Identical cells and seeds produce identical results at
// any worker count.
func Sweep(cells []SweepCell, seeds []uint64, workers int) (*SweepResult, error) {
	spec, err := lowerSpec(cells, seeds, workers)
	if err != nil {
		return nil, err
	}
	return sweep.Run(spec)
}

// lowerSpec lowers public sweep cells onto the internal spec — the
// shared front half of Sweep, DistSweepCoordinator and DistSweepWorker
// (which must all lower identically for spec fingerprints to agree).
func lowerSpec(cells []SweepCell, seeds []uint64, workers int) (sweep.Spec, error) {
	spec := sweep.Spec{Seeds: seeds, Workers: workers}
	for _, c := range cells {
		hc, err := c.Config.Lower()
		if err != nil {
			return sweep.Spec{}, fmt.Errorf("flowercdn: sweep cell %q: %w", c.Name, err)
		}
		spec.Cells = append(spec.Cells, sweep.Cell{Name: c.Name, Config: hc})
	}
	return spec, nil
}

// SeedSet returns n consecutive seeds starting at base — the usual way
// to name a sweep's seed set ("seeds 1..10").
func SeedSet(base uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = base + uint64(i)
	}
	return seeds
}

// Grid expands a cross-product of configuration axes into sweep cells.
// Every axis left nil inherits the base config's value, so a Grid with
// only Protocols set varies just the protocol. Cell names encode only
// the axes that actually vary ("flower/P=3000/m=30").
type Grid struct {
	// Base supplies every parameter the axes don't override.
	Base Config
	// Protocols varies the system under test.
	Protocols []Protocol
	// Populations varies P.
	Populations []int
	// MeanUptimes varies the churn intensity m, in minutes.
	MeanUptimes []int
	// GossipPeriods varies the gossip/keepalive period, in minutes.
	GossipPeriods []int
	// CacheCapacities varies the per-peer store capacity in objects.
	// A 0 entry means unbounded (the cell runs policy "none" — the
	// paper's model); positive entries run the base config's
	// CachePolicy, defaulting to "lru" when the base is unbounded.
	CacheCapacities []int
}

// Cells expands the grid in deterministic order (protocol-major).
func (g Grid) Cells() []SweepCell {
	protos := g.Protocols
	if len(protos) == 0 {
		protos = []Protocol{g.Base.Protocol}
	}
	pops := g.Populations
	if len(pops) == 0 {
		pops = []int{g.Base.Population}
	}
	uptimes := g.MeanUptimes
	if len(uptimes) == 0 {
		uptimes = []int{g.Base.MeanUptimeMinutes}
	}
	gossips := g.GossipPeriods
	if len(gossips) == 0 {
		gossips = []int{g.Base.GossipEveryMinutes}
	}
	caps := g.CacheCapacities
	if len(caps) == 0 {
		caps = []int{g.Base.CacheCapacity}
	}
	var cells []SweepCell
	for _, proto := range protos {
		for _, p := range pops {
			for _, m := range uptimes {
				for _, gp := range gossips {
					for _, cap := range caps {
						cfg := g.Base
						cfg.Protocol = proto
						cfg.Population = p
						cfg.MeanUptimeMinutes = m
						cfg.GossipEveryMinutes = gp
						cfg.CacheCapacity = cap
						if len(g.CacheCapacities) > 0 {
							if cap <= 0 {
								// The unbounded reference cell.
								cfg.CachePolicy = "none"
								cfg.CacheCapacity = 0
							} else if cfg.CachePolicy == "" || cfg.CachePolicy == "none" {
								cfg.CachePolicy = "lru"
							}
						}
						var parts []string
						parts = append(parts, string(proto))
						if len(pops) > 1 {
							parts = append(parts, fmt.Sprintf("P=%d", p))
						}
						if len(uptimes) > 1 {
							parts = append(parts, fmt.Sprintf("m=%d", m))
						}
						if len(gossips) > 1 {
							parts = append(parts, fmt.Sprintf("g=%d", gp))
						}
						if len(caps) > 1 {
							if cap <= 0 {
								parts = append(parts, "cap=inf")
							} else {
								parts = append(parts, fmt.Sprintf("cap=%d", cap))
							}
						}
						cells = append(cells, SweepCell{Name: strings.Join(parts, "/"), Config: cfg})
					}
				}
			}
		}
	}
	return cells
}

// Scenario names a preset workload shape layered on top of a base
// configuration (so quick- and paper-scale bases both work).
type Scenario string

const (
	// ScenarioTable1 is the paper's Table 1 workload, unchanged.
	ScenarioTable1 Scenario = "table1"
	// ScenarioFlashCrowd concentrates the whole query mix on a single
	// hot website queried 3x as often with a sharper popularity curve —
	// the flash-crowd situation PetalUp-CDN's directory splitting
	// targets (Sec. 4).
	ScenarioFlashCrowd Scenario = "flash-crowd"
	// ScenarioLocalitySkew Zipf-concentrates client arrivals into a few
	// localities instead of the paper's uniform spread, stressing the
	// per-locality petal sizing.
	ScenarioLocalitySkew Scenario = "locality-skew"
	// ScenarioCachePressure bounds every peer's store with an LRU
	// policy at a capacity well under the per-site catalog — the first
	// scenario the paper's unbounded storage model cannot express.
	// Combine with the capacity sweep grid to trace the hit-ratio knee
	// as capacity shrinks.
	ScenarioCachePressure Scenario = "cache-pressure"
)

// Scenarios lists the presets.
func Scenarios() []Scenario {
	return []Scenario{ScenarioTable1, ScenarioFlashCrowd, ScenarioLocalitySkew, ScenarioCachePressure}
}

// ApplyScenario overlays a scenario preset on cfg.
func ApplyScenario(cfg Config, s Scenario) (Config, error) {
	switch s {
	case ScenarioTable1, "":
		return cfg, nil
	case ScenarioFlashCrowd:
		// One active site everyone piles onto: interest Zipf-concentrates
		// on site 0 (~60% of peers at skew 2), which is queried 3x as
		// often with a sharper object-popularity curve.
		cfg.ActiveSites = 1
		cfg.InterestSkew = 2.0
		cfg.QueryEveryMinutes = 2
		cfg.ZipfAlpha = 1.2
		return cfg, nil
	case ScenarioLocalitySkew:
		cfg.LocalitySkew = 1.2
		return cfg, nil
	case ScenarioCachePressure:
		// LRU at a small fraction of the catalog; a capacity grid
		// overrides the capacity per cell and keeps the policy.
		if cfg.CachePolicy == "" || cfg.CachePolicy == "none" {
			cfg.CachePolicy = "lru"
		}
		if cfg.CacheCapacity <= 0 {
			cfg.CacheCapacity = 16
		}
		return cfg, nil
	default:
		return cfg, fmt.Errorf("flowercdn: unknown scenario %q (have %v)", s, Scenarios())
	}
}
