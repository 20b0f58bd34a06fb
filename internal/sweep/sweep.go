// Package sweep runs grids of experiment configurations across many
// seeds in parallel and aggregates the results. It is the scaffolding
// behind every multi-run number this repository reports: the paper's
// own evaluation (Sec. 6) quotes single-run figures, whereas a sweep
// repeats each cell of a configuration grid (protocol × population ×
// churn × gossip period × …) under a set of seeds and reports per-cell
// mean / stddev / 95% confidence intervals via internal/metrics.
//
// Each run gets its own discrete-event engine and RNG tree, so runs
// share no mutable state and the fan-out across a bounded worker pool
// is embarrassingly parallel. Results are keyed by (cell, seed) index,
// never by completion order, so a sweep's aggregates are bit-identical
// whatever the worker count.
package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"flowercdn/internal/harness"
	"flowercdn/internal/metrics"
)

// Cell is one grid point: a named configuration. The Seed field of the
// config is ignored — the sweep overwrites it with each seed in turn.
type Cell struct {
	// Name labels the cell in tables and CSV ("flower/P=3000").
	Name string
	// Config is the full experiment configuration for this cell.
	Config harness.Config
	// Form is the cell's canonical flags, what distsweep fingerprints.
	Form string
}

// Spec describes one sweep: the grid, the seed set shared by every
// cell, and the parallelism bound.
type Spec struct {
	// Cells is the configuration grid, in presentation order.
	Cells []Cell
	// Seeds is applied to every cell; each (cell, seed) pair is one
	// independent run.
	Seeds []uint64
	// Workers bounds concurrent runs; <= 0 means GOMAXPROCS.
	Workers int
}

// Validate checks the spec, including every cell configuration, so a
// bad grid fails fast instead of after minutes of simulation.
func (s Spec) Validate() error {
	if len(s.Cells) == 0 {
		return errors.New("sweep: no cells")
	}
	if len(s.Seeds) == 0 {
		return errors.New("sweep: no seeds")
	}
	seen := make(map[string]bool, len(s.Cells))
	for i, c := range s.Cells {
		if c.Name == "" {
			return fmt.Errorf("sweep: cell %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("sweep: duplicate cell name %q", c.Name)
		}
		seen[c.Name] = true
		if err := c.Config.Validate(); err != nil {
			return fmt.Errorf("sweep: cell %q: %w", c.Name, err)
		}
	}
	return nil
}

// CellResult aggregates one cell over all seeds.
type CellResult struct {
	Name       string
	Protocol   harness.Protocol
	Population int
	// Seeds echoes the spec's seed set, in run order.
	Seeds []uint64

	// The paper's three metrics (tail hit ratio is the Table 2 view),
	// each summarized over the seed set.
	HitRatio       metrics.Stat
	TailHitRatio   metrics.Stat
	MeanLookupMs   metrics.Stat
	MeanTransferMs metrics.Stat
	// MeanHops summarizes overlay routing cost per routed query, for
	// deployments that report hop counts (0 for the rest) — the metric
	// the Koorde-vs-Chord comparison turns on.
	MeanHops metrics.Stat
	// Queries and Unresolved summarize load and failure diagnostics.
	Queries    metrics.Stat
	Unresolved metrics.Stat

	// Runs holds the underlying per-seed results, index-aligned with
	// Seeds, for callers that need more than the aggregates.
	Runs []*harness.Result
}

// Result is the outcome of one sweep.
type Result struct {
	// Cells is index-aligned with the spec's grid.
	Cells []CellResult
	// Workers is the resolved parallelism the sweep ran with.
	Workers int
	// TotalRuns is len(Cells) * len(Seeds).
	TotalRuns int
}

// Run executes the sweep: len(Cells) × len(Seeds) independent
// simulations fanned out over the worker pool, aggregated per cell.
// The aggregates depend only on the spec, not on scheduling.
func Run(spec Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nc, ns := len(spec.Cells), len(spec.Seeds)
	jobs := nc * ns
	if workers > jobs {
		workers = jobs
	}

	// results[cell*ns + seedIdx]; errs likewise. Slots are written by
	// exactly one worker each, so no locking beyond the job counter.
	results := make([]*harness.Result, jobs)
	errs := make([]error, jobs)

	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for j := range next {
				cfg := spec.Cells[j/ns].Config
				cfg.Seed = spec.Seeds[j%ns]
				results[j], errs[j] = harness.Run(cfg)
			}
		}()
	}
	for j := 0; j < jobs; j++ {
		next <- j
	}
	close(next)
	wg.Wait()

	// First error by job index wins, so the reported failure is also
	// independent of scheduling.
	for j, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep: cell %q seed %d: %w",
				spec.Cells[j/ns].Name, spec.Seeds[j%ns], err)
		}
	}

	out := Aggregate(spec, results)
	out.Workers = workers
	return out, nil
}

// Aggregate folds per-run results into the sweep's per-cell aggregates.
// results must hold one result per (cell, seed) pair in cell-major
// order: results[c*len(spec.Seeds)+s] is cell c under seed s.
//
// Run calls it on its own fan-out; the distributed sweep coordinator
// (internal/distsweep) calls it on records merged back from worker
// processes. Both paths reduce through this one function over the same
// job ordering, which is what makes a distributed sweep's aggregates
// bit-identical to an in-process run's.
func Aggregate(spec Spec, results []*harness.Result) *Result {
	nc, ns := len(spec.Cells), len(spec.Seeds)
	out := &Result{TotalRuns: nc * ns}
	for c := 0; c < nc; c++ {
		runs := results[c*ns : (c+1)*ns]
		cr := CellResult{
			Name:       spec.Cells[c].Name,
			Protocol:   spec.Cells[c].Config.Protocol,
			Population: spec.Cells[c].Config.Population,
			Seeds:      append([]uint64(nil), spec.Seeds...),
			Runs:       runs,
		}
		var hit, tail, lookup, transfer, hops, queries, unresolved []float64
		for _, r := range runs {
			hit = append(hit, r.HitRatio)
			tail = append(tail, r.TailHitRatio)
			lookup = append(lookup, r.MeanLookupMs)
			transfer = append(transfer, r.MeanTransferMs)
			hops = append(hops, r.MeanHops)
			queries = append(queries, float64(r.Queries))
			unresolved = append(unresolved, float64(r.Unresolved))
		}
		cr.HitRatio = metrics.Summarize(hit)
		cr.TailHitRatio = metrics.Summarize(tail)
		cr.MeanLookupMs = metrics.Summarize(lookup)
		cr.MeanTransferMs = metrics.Summarize(transfer)
		cr.MeanHops = metrics.Summarize(hops)
		cr.Queries = metrics.Summarize(queries)
		cr.Unresolved = metrics.Summarize(unresolved)
		out.Cells = append(out.Cells, cr)
	}
	return out
}
