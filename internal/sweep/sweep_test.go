package sweep

import (
	"reflect"
	"strings"
	"testing"

	"flowercdn/internal/harness"
	"flowercdn/internal/sim"
)

// tinyConfig is a CI-sized run: a few hundred ms of wall time, so a
// multi-cell multi-seed grid stays well inside go test defaults.
func tinyConfig() harness.Config {
	cfg := harness.QuickConfig()
	cfg.Population = 100
	cfg.Duration = 2 * sim.Hour
	cfg.Workload.Sites = 8
	cfg.Workload.ActiveSites = 2
	cfg.Workload.ObjectsPerSite = 50
	return cfg
}

func tinyGrid() []Cell {
	flower := tinyConfig()
	squirrel := tinyConfig()
	squirrel.Protocol = harness.ProtocolSquirrel
	petalup := tinyConfig()
	petalup.Protocol = harness.ProtocolPetalUp
	petalup.Options = map[string]any{"load-limit": 10}
	// A capacity-bounded cell rides in the determinism grid: eviction
	// decisions must be as schedule-independent as everything else
	// (TestDeterministicAcrossWorkerCounts diffs the full per-seed
	// results, fingerprints included, at workers 1 vs 8).
	bounded := tinyConfig()
	bounded.Options = map[string]any{"cache-policy": "lru", "cache-capacity": 6}
	return []Cell{
		{Name: "flower", Config: flower},
		{Name: "squirrel", Config: squirrel},
		{Name: "petalup", Config: petalup},
		{Name: "flower/lru6", Config: bounded},
	}
}

func TestSpecValidate(t *testing.T) {
	ok := Spec{Cells: tinyGrid(), Seeds: []uint64{1}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		spec Spec
	}{
		{"no cells", Spec{Seeds: []uint64{1}}},
		{"no seeds", Spec{Cells: tinyGrid()}},
		{"unnamed cell", Spec{Cells: []Cell{{Config: tinyConfig()}}, Seeds: []uint64{1}}},
		{"duplicate name", Spec{
			Cells: []Cell{{Name: "a", Config: tinyConfig()}, {Name: "a", Config: tinyConfig()}},
			Seeds: []uint64{1},
		}},
		{"bad config", Spec{
			Cells: []Cell{{Name: "a", Config: harness.Config{Protocol: "nope"}}},
			Seeds: []uint64{1},
		}},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
	}
}

// TestDeterministicAcrossWorkerCounts is the core contract: the same
// grid and seed set produce identical aggregates whether the sweep runs
// serially or eight-wide.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5}
	serial, err := Run(Spec{Cells: tinyGrid(), Seeds: seeds, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(Spec{Cells: tinyGrid(), Seeds: seeds, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Workers != 1 {
		t.Fatalf("serial workers = %d", serial.Workers)
	}
	if parallel.Workers < 2 {
		t.Fatalf("parallel workers = %d", parallel.Workers)
	}
	if len(serial.Cells) != len(parallel.Cells) {
		t.Fatalf("cell count %d vs %d", len(serial.Cells), len(parallel.Cells))
	}
	for i := range serial.Cells {
		s, p := serial.Cells[i], parallel.Cells[i]
		// Compare the full per-seed results, not just the aggregates:
		// every run must be bit-identical regardless of scheduling.
		for j := range s.Runs {
			if !reflect.DeepEqual(s.Runs[j], p.Runs[j]) {
				t.Errorf("cell %q seed %d: runs differ between worker counts", s.Name, s.Seeds[j])
			}
		}
		if s.HitRatio != p.HitRatio || s.TailHitRatio != p.TailHitRatio ||
			s.MeanLookupMs != p.MeanLookupMs || s.MeanTransferMs != p.MeanTransferMs {
			t.Errorf("cell %q: aggregates differ between worker counts", s.Name)
		}
	}
	if serial.Table() != parallel.Table() {
		t.Error("Table() differs between worker counts")
	}
	if serial.CSV() != parallel.CSV() {
		t.Error("CSV() differs between worker counts")
	}
}

func TestAggregates(t *testing.T) {
	seeds := []uint64{7, 8, 9}
	res, err := Run(Spec{Cells: tinyGrid()[:1], Seeds: seeds, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRuns != 3 {
		t.Fatalf("TotalRuns = %d, want 3", res.TotalRuns)
	}
	c := res.Cells[0]
	if c.HitRatio.N != 3 || len(c.Runs) != 3 {
		t.Fatalf("expected 3 observations, got N=%d runs=%d", c.HitRatio.N, len(c.Runs))
	}
	if c.HitRatio.Mean <= 0 || c.HitRatio.Mean > 1 {
		t.Fatalf("hit ratio mean %v out of (0, 1]", c.HitRatio.Mean)
	}
	if c.Queries.Mean <= 0 {
		t.Fatalf("no queries recorded: %+v", c.Queries)
	}
	if c.HitRatio.Min > c.HitRatio.Mean || c.HitRatio.Max < c.HitRatio.Mean {
		t.Fatalf("min/mean/max inconsistent: %+v", c.HitRatio)
	}
	for j, r := range c.Runs {
		if r.Protocol != harness.ProtocolFlower {
			t.Fatalf("run %d protocol %q", j, r.Protocol)
		}
	}
	// Workers above the job count are trimmed.
	if res.Workers != 3 {
		t.Fatalf("Workers = %d, want trimmed to 3", res.Workers)
	}
}

func TestFormat(t *testing.T) {
	res, err := Run(Spec{Cells: tinyGrid()[:2], Seeds: []uint64{1, 2}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	table := res.Table()
	for _, want := range []string{"flower", "squirrel", "2 cells x 2 seeds", "hit ratio"} {
		if !strings.Contains(table, want) {
			t.Errorf("Table() missing %q:\n%s", want, table)
		}
	}
	csv := res.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 cells:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "cell,protocol,population,seeds,hit_mean") {
		t.Errorf("CSV header wrong: %s", lines[0])
	}
	for _, line := range lines {
		if got := strings.Count(line, ","); got != len(csvHeader)-1 {
			t.Errorf("CSV line has %d commas, want %d: %s", got, len(csvHeader)-1, line)
		}
	}
}

func TestCSVEscape(t *testing.T) {
	if got := csvEscape("plain"); got != "plain" {
		t.Errorf("plain: %q", got)
	}
	if got := csvEscape(`a,b"c`); got != `"a,b""c"` {
		t.Errorf("escaped: %q", got)
	}
}
