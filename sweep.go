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

// lowerSpec lowers public sweep cells onto the internal spec, each with
// its canonical form, which a distributed sweep fingerprints — the
// shared front half of Sweep, DistSweepCoordinator and DistSweepWorker.
func lowerSpec(cells []SweepCell, seeds []uint64, workers int) (sweep.Spec, error) {
	spec := sweep.Spec{Seeds: seeds, Workers: workers}
	for _, c := range cells {
		hc, err := c.Config.Lower()
		if err != nil {
			return sweep.Spec{}, fmt.Errorf("flowercdn: sweep cell %q: %w", c.Name, err)
		}
		spec.Cells = append(spec.Cells, sweep.Cell{Name: c.Name, Config: hc, Form: strings.Join(c.Config.Cell(), " ")})
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
	if len(g.Protocols) == 0 {
		g.Protocols = []Protocol{g.Base.Protocol}
	}
	cells := cross([]SweepCell{{Config: g.Base}}, g.Protocols, func(c *Config, p Protocol) string {
		c.Protocol = p
		return string(p)
	})
	cells = cross(cells, g.Populations, func(c *Config, p int) string {
		c.Population = p
		return fmt.Sprintf("P=%d", p)
	})
	cells = cross(cells, g.MeanUptimes, func(c *Config, m int) string {
		c.MeanUptimeMinutes = m
		return fmt.Sprintf("m=%d", m)
	})
	cells = cross(cells, g.GossipPeriods, func(c *Config, gp int) string {
		c.GossipEveryMinutes = gp
		return fmt.Sprintf("g=%d", gp)
	})
	return cross(cells, g.CacheCapacities, func(c *Config, cap int) string {
		if cap <= 0 { // the unbounded reference cell
			c.CachePolicy, c.CacheCapacity = "none", 0
			return "cap=inf"
		}
		if c.CachePolicy == "" || c.CachePolicy == "none" {
			c.CachePolicy = "lru"
		}
		c.CacheCapacity = cap
		return fmt.Sprintf("cap=%d", cap)
	})
}

// cross expands every cell once per value of an axis, in order; set
// applies a value and names it. A cell's first name part is always
// given, a later one only when its axis varies.
func cross[T any](cells []SweepCell, values []T, set func(*Config, T) string) []SweepCell {
	if len(values) == 0 {
		return cells
	}
	var out []SweepCell
	for _, c := range cells {
		for _, v := range values {
			n := c
			switch part := set(&n.Config, v); {
			case n.Name == "":
				n.Name = part
			case len(values) > 1:
				n.Name += "/" + part
			}
			out = append(out, n)
		}
	}
	return out
}
