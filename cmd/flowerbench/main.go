// Command flowerbench regenerates the paper's evaluation artifacts and
// runs parallel multi-seed sweeps over configuration grids.
//
// Sweep mode (-grid) is the primary interface: it expands a named grid
// of configurations, runs every cell under -seeds seeds across
// -workers concurrent simulations, and prints per-cell mean ± 95% CI
// aggregates (with optional CSV output). Aggregates are identical for
// any worker count; only the wall clock changes.
//
//	flowerbench -grid compare -seeds 5                 # every comparable protocol x 5 seeds
//	flowerbench -grid scalability -seeds 10 -workers 8 # Table 2 with error bars
//	flowerbench -grid churn -scenario flash-crowd      # churn axis, hot-site workload
//	flowerbench -grid capacity -scenario cache-pressure # hit ratio vs per-peer cache capacity
//	flowerbench -grid compare -csv out.csv             # machine-readable aggregates
//
// Sweeps also run distributed: one coordinator process shards the
// grid's (cell, seed) jobs over worker processes. Manual mode — start
// each process yourself (terminals, machines):
//
//	flowerbench -grid compare -seeds 5 -dist-coordinator 127.0.0.1:7100
//	flowerbench -grid compare -seeds 5 -dist-worker 127.0.0.1:7100   # x N, anywhere
//
// Convenience mode — fork the workers locally (demos, CI):
//
//	flowerbench -grid compare -seeds 5 -dist-coordinator 127.0.0.1:0 -spawn-workers 2
//
// Every process must be given the same sweep flags (-grid, -scenario,
// -seeds, -seed, -full, -p) on the same binary: configurations never
// cross the wire; the coordinator verifies a spec fingerprint at
// connect time and refuses a worker whose flags drifted. The sweep is
// resumable: completed runs persist under -out-dir, and a restarted
// coordinator (same flags, same directory) re-runs only what is
// missing. Aggregates are bit-identical to the in-process sweep at any
// worker count — `make dist-smoke` diffs the two CSVs in CI. The
// processes speak the binary wire codec, and the timings are fixed: a
// worker heartbeats every 2 s while it runs a job and forfeits the job
// to reassignment after 2 minutes of silence. See docs/OPERATIONS.md.
//
// Grids: compare (every comparable protocol in the protocol list:
// flower, petalup, squirrel, chord-global, koorde-global —
// origin-only is reachable via flowersim -protocol origin-only),
// scalability (flower/squirrel x population), churn (mean-uptime
// axis), gossip (gossip-period axis), capacity (per-peer cache-capacity
// axis, unbounded reference cell included). Scenarios: table1
// (default), flash-crowd, locality-skew, cache-pressure.
//
// Without -grid it renders the paper's single-run artifacts: Fig. 3
// (hit ratio over time), Fig. 4 (lookup latency distribution), Fig. 5
// (transfer distance distribution) and Table 2 (scalability sweep),
// plus the PetalUp flash-crowd extension experiment.
//
// By default everything runs at a reduced scale that finishes in
// seconds; pass -full for the paper's Table 1 scale (P up to 5000, 24
// simulated hours — several minutes of wall time per run).
//
//	flowerbench                 # all artifacts, quick scale
//	flowerbench -fig 3          # just Fig. 3
//	flowerbench -table 2 -full  # Table 2 at paper scale
//	flowerbench -extra petalup  # flash-crowd load-bounding experiment
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"flowercdn"
	"flowercdn/internal/cli"
	"flowercdn/internal/trace"
)

// The flag tags. A sweep flag is part of the sweep's definition: every
// process of a distributed sweep must be given it, so -spawn-workers
// hands it down; everything else stays with this process.
const (
	local cli.Tag = iota
	sweep
)

// options is everything the command line sets.
type options struct {
	flags *cli.Flags

	fig, table int
	extra      string
	full       bool
	seed       uint64
	pop        int
	trace      bool

	grid, scenario string
	seeds, workers int
	csv, seriesCSV string

	// dist holds -dist-coordinator and -out-dir.
	dist         flowercdn.DistSweepOptions
	distWorker   string
	spawnWorkers int
	distVerbose  bool

	cpuProfile, memProfile string
}

// declare registers every flag on fs, bound to the options field it
// sets and defaulting to what that field holds here.
func declare(fs *flag.FlagSet) *options {
	o := &options{flags: cli.NewFlags(fs), seed: 1, scenario: "table1", seeds: 5}
	o.dist.OutDir = "dist-out"
	f := o.flags

	cli.Bind(f, local, &o.fig, "fig", "regenerate one figure (3, 4 or 5); 0 = all")
	cli.Bind(f, local, &o.table, "table", "regenerate one table (1 or 2); 0 = all")
	cli.Bind(f, local, &o.extra, "extra", "extension experiment: 'petalup'")
	cli.Bind(f, sweep, &o.full, "full", "paper scale (P up to 5000, 24 h) instead of quick scale")
	cli.Bind(f, sweep, &o.seed, "seed", "simulation seed (sweeps use seeds seed..seed+n-1)")
	cli.Bind(f, sweep, &o.pop, "p", "override population P")
	cli.Bind(f, local, &o.trace, "trace", "run every comparable protocol with per-query tracing and print the per-hop latency breakdown")

	cli.Bind(f, sweep, &o.grid, "grid", "run a sweep over a named grid: compare, scalability, churn, gossip, capacity")
	cli.Bind(f, sweep, &o.scenario, "scenario", "workload scenario: table1, flash-crowd, locality-skew, cache-pressure")
	cli.Bind(f, sweep, &o.seeds, "seeds", "number of seeds per sweep cell")
	cli.Bind(f, local, &o.workers, "workers", "max concurrent simulations (0 = GOMAXPROCS)")
	cli.Bind(f, local, &o.csv, "csv", "also write sweep aggregates as CSV to this file ('-' = stdout)")
	cli.Bind(f, local, &o.seriesCSV, "series-csv", "also write the per-window hit-ratio/latency series as CSV to this file ('-' = stdout)")

	cli.Bind(f, local, &o.dist.Listen, "dist-coordinator", "run the -grid sweep as a distributed coordinator listening on this address (':0' for an ephemeral port)")
	cli.Bind(f, local, &o.distWorker, "dist-worker", "serve a distributed sweep as a worker of the coordinator at this address (same sweep flags required)")
	cli.Bind(f, local, &o.spawnWorkers, "spawn-workers", "with -dist-coordinator: also fork N local worker processes")
	cli.Bind(f, local, &o.dist.OutDir, "out-dir", "coordinator result-record directory (makes the sweep resumable)")
	cli.Bind(f, local, &o.distVerbose, "dist-verbose", "print coordinator scheduling events (assignments, completions, reassignments)")

	cli.Bind(f, local, &o.cpuProfile, "cpuprofile", "write a CPU profile covering every run to this file")
	cli.Bind(f, local, &o.memProfile, "memprofile", "write an end-of-run heap profile to this file")
	return o
}

func main() {
	o := declare(flag.CommandLine)
	flag.Parse()
	if err := cli.Profiled(o.cpuProfile, o.memProfile, o.main); err != nil {
		cli.Fatal(err)
	}
}

func (o *options) main() error {
	cfg := flowercdn.QuickConfig()
	pops := []int{200, 300, 400, 500}
	if o.full {
		cfg = flowercdn.DefaultConfig()
		pops = []int{2000, 3000, 4000, 5000}
	}
	cfg.Seed = o.seed
	if o.pop > 0 {
		cfg.Population = o.pop
	}

	switch {
	case o.trace:
		return runTraceBreakdown(cfg)
	case o.grid != "":
		return o.runGrid(cfg, pops)
	case o.dist.Listen != "" || o.distWorker != "":
		return fmt.Errorf("distributed mode needs -grid (the sweep definition every process shares)")
	}

	all := o.fig == 0 && o.table == 0 && o.extra == ""

	if all || o.table == 1 {
		t1, err := flowercdn.FormatTable1(cfg)
		if err != nil {
			return err
		}
		fmt.Println(t1)
	}

	if all || o.fig != 0 {
		start := time.Now()
		fmt.Printf("running %s vs %s on cell %q...\n", flowercdn.Flower, flowercdn.Squirrel, strings.Join(cfg.Cell(), " "))
		f, s, err := flowercdn.RunComparison(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("done in %v\n\n", time.Since(start).Round(time.Millisecond))
		formats := []func(f, s *flowercdn.Result) string{flowercdn.FormatFig3, flowercdn.FormatFig4, flowercdn.FormatFig5}
		for i, format := range formats {
			if all || o.fig == 3+i {
				fmt.Println(format(f, s))
			}
		}
		fmt.Println(flowercdn.FormatSummary(f) + flowercdn.FormatSummary(s))
	}

	if all || o.table == 2 {
		start := time.Now()
		fmt.Printf("running Table 2 sweep over P=%v...\n", pops)
		rows, err := flowercdn.RunScalability(cfg, pops)
		if err != nil {
			return err
		}
		fmt.Printf("done in %v\n\n", time.Since(start).Round(time.Millisecond))
		fmt.Println(flowercdn.FormatTable2(rows))
	}

	if all || o.extra == "petalup" {
		return runPetalUpExtra(cfg)
	}
	return nil
}

// buildGrid expands the named grid preset around the base config.
func buildGrid(base flowercdn.Config, pops []int, name string) ([]flowercdn.SweepCell, error) {
	g := flowercdn.Grid{Base: base, Protocols: []flowercdn.Protocol{flowercdn.Flower, flowercdn.Squirrel}}
	switch name {
	case "compare":
		// Every comparable protocol, automatically: a new deployment
		// only has to join internal/protocols.All to appear here. (origin-only is the degenerate floor; run it via
		// flowersim -protocol origin-only.)
		g.Protocols = flowercdn.CompareProtocols()
	case "scalability":
		g.Populations = pops
	case "churn":
		g.MeanUptimes = []int{15, 30, 60, 120}
	case "gossip":
		g.Protocols = g.Protocols[:1]
		g.GossipPeriods = []int{15, 30, 60, 120}
	case "capacity":
		// Per-peer cache capacity in objects, smallest first, with the
		// unbounded paper model (0 → policy none) as the reference
		// ceiling. The base policy comes from -scenario cache-pressure
		// (or defaults to lru).
		g.Protocols = g.Protocols[:1]
		g.CacheCapacities = []int{4, 8, 16, 32, 64, 0}
	default:
		return nil, fmt.Errorf("unknown grid %q (have compare, scalability, churn, gossip, capacity)", name)
	}
	return g.Cells(), nil
}

// runGrid is the -grid entry point. It expands the sweep definition
// flags into the cells and seed set — deterministically, so a
// distributed coordinator and its workers (same flags, same binary)
// derive the identical spec — then serves the sweep as a worker, or runs
// it (in this process or as the coordinator of one) and prints the
// aggregates.
func (o *options) runGrid(base flowercdn.Config, pops []int) error {
	preset, err := flowercdn.Scenario(o.scenario)
	if err == nil {
		base, err = flowercdn.ParseCell(base, preset...)
	}
	if err != nil {
		return err
	}
	cells, err := buildGrid(base, pops, o.grid)
	if err != nil {
		return err
	}
	if o.seeds < 1 {
		return fmt.Errorf("need at least one seed, got %d", o.seeds)
	}
	seedSet := flowercdn.SeedSet(o.seed, o.seeds)

	if o.distWorker != "" {
		return flowercdn.DistSweepWorker(cells, seedSet, flowercdn.DistSweepWorkerOptions{
			Coordinator: o.distWorker,
			OnEvent:     func(e string) { fmt.Println(e) },
		})
	}

	// Fail on an unwritable CSV path before the sweep, not after
	// minutes of simulation (O_CREATE without O_TRUNC keeps any
	// existing content until the real write).
	for _, path := range []string{o.csv, o.seriesCSV} {
		if path != "" && path != "-" {
			f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				return err
			}
			f.Close()
		}
	}

	start := time.Now()
	var res *flowercdn.SweepResult
	header := fmt.Sprintf("sweep %q on cell %q (scenario %s): %d cells x %d seeds",
		o.grid, strings.Join(base.Cell(), " "), o.scenario, len(cells), len(seedSet))
	if o.dist.Listen != "" {
		fmt.Printf("distributed %s, out-dir %s\n", header, o.dist.OutDir)
		res, err = o.coordinate(cells, seedSet)
	} else {
		fmt.Printf("%s...\n", header)
		res, err = flowercdn.Sweep(cells, seedSet, o.workers)
	}
	if err != nil {
		return err
	}
	// res.Workers is the sweep's own resolved parallelism (GOMAXPROCS
	// default, capped at the job count), not a re-derivation that could
	// drift from it.
	fmt.Printf("done in %v (%d runs, %d workers)\n\n",
		time.Since(start).Round(time.Millisecond), res.TotalRuns, res.Workers)
	fmt.Print(res.Table())
	if err := writeArtifact(o.csv, res.CSV); err != nil {
		return err
	}
	return writeArtifact(o.seriesCSV, res.SeriesCSV)
}

// coordinate shards the sweep across worker processes, forking
// -spawn-workers of them locally once the listen address is known.
func (o *options) coordinate(cells []flowercdn.SweepCell, seedSet []uint64) (*flowercdn.SweepResult, error) {
	waitWorkers := func() []error { return nil }
	opts := o.dist
	opts.OnListen = func(addr string) {
		fmt.Printf("coordinator listening on %s\n", addr)
		if o.spawnWorkers <= 0 {
			return
		}
		argv := make([][]string, o.spawnWorkers)
		for w := range argv {
			argv[w] = o.workerArgs(addr)
		}
		wait, err := cli.Spawn("w", argv)
		if err != nil {
			cli.Fatal(err) // the coordinator would wait forever for workers that never started
		}
		waitWorkers = wait
		fmt.Printf("spawned %d local worker(s) -> %s\n", o.spawnWorkers, addr)
	}
	opts.OnEvent = func(e string) {
		if o.distVerbose {
			fmt.Printf("[coord] %s\n", e)
		}
	}
	res, err := flowercdn.DistSweepCoordinator(cells, seedSet, opts)
	// Spawned workers exit on the coordinator's Shutdown; collect them
	// so their trailing output lands before the table. The coordinator's
	// own failure surfaces the cause; a worker's exit status is
	// informational.
	for w, err := range waitWorkers() {
		if err != nil {
			cli.Warnf("worker %d: %v", w, err)
		}
	}
	return res, err
}

// workerArgs is the command line of a -spawn-workers child: a worker of
// the coordinator at addr, re-deriving the sweep from the sweep flags
// this process was given. Coordinator-only and output flags stay behind,
// so children neither recurse nor clobber artifacts and profiles.
func (o *options) workerArgs(addr string) []string {
	return append([]string{"-dist-worker", addr},
		o.flags.Args(func(t cli.Tag) bool { return t == sweep })...)
}

// writeArtifact sends one artifact to a file or stdout ("-"); with no
// path the artifact is never rendered.
func writeArtifact(path string, render func() string) error {
	if path == "" {
		return nil
	}
	fmt.Println()
	err := cli.WriteTo(path, func(w io.Writer) error {
		_, err := io.WriteString(w, render())
		return err
	})
	if err == nil && path != "-" {
		fmt.Printf("wrote %s\n", path)
	}
	return err
}

// runTraceBreakdown answers "where does flower's locality win come
// from?" with data instead of argument: every comparable protocol runs
// on the same cell with per-query tracing on, and each run's hop-by-hop
// records are folded into a per-hop-kind latency breakdown (link vs
// queue split via the modeled topology latency).
func runTraceBreakdown(cfg flowercdn.Config) error {
	cfg.Trace = true
	for _, p := range flowercdn.CompareProtocols() {
		c := cfg
		c.Protocol = p
		start := time.Now()
		res, err := flowercdn.Run(c)
		if err != nil {
			return err
		}
		fmt.Printf("=== %s, cell %q (%d queries, hit %.3f, lookup %.0f ms; %v)\n", p, strings.Join(c.Cell(), " "),
			res.Queries, res.TailHitRatio, res.MeanLookupMs, time.Since(start).Round(time.Millisecond))
		fmt.Print(trace.Analyze(res.Traces, res.HopLatency).Format())
		fmt.Println()
	}
	return nil
}

// runPetalUpExtra contrasts PetalUp-CDN with classic Flower-CDN on the
// same settings: the per-directory load stays bounded while hit
// performance is preserved (the Sec. 4 claim).
func runPetalUpExtra(cfg flowercdn.Config) error {
	fmt.Println("PetalUp extension: directory-load bounding")
	up := cfg
	up.Protocol = flowercdn.PetalUp
	up.PetalUpLoadLimit = 15
	upRes, err := flowercdn.Run(up)
	if err != nil {
		return err
	}
	cl := cfg
	cl.Protocol = flowercdn.Flower
	clRes, err := flowercdn.Run(cl)
	if err != nil {
		return err
	}
	fmt.Printf("  classic  : hit %.3f, lookup %.0f ms\n", clRes.TailHitRatio, clRes.MeanLookupMs)
	fmt.Printf("  petalup  : hit %.3f, lookup %.0f ms (load limit %d)\n",
		upRes.TailHitRatio, upRes.MeanLookupMs, up.PetalUpLoadLimit)
	return nil
}
