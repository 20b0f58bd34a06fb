package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"flowercdn/internal/harness"
	"flowercdn/internal/runtime"
)

// These tests keep the benchmark's contract honest from `go test ./...`
// in seconds: the spec obeys the limits the driver enforces and equals
// BENCHMARK.json, and a miniature of every workload emits every metric
// the spec names.

// The shapes the driver allows a name and a unit.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestSpecObeysTheContract(t *testing.T) {
	s := spec()
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", s.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range s.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range s.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g out of (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricSpec{}, s.EndToEnd...), s.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range s.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	if len(specJSON()) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(specJSON()))
	}
}

func TestBenchmarkJSONIsTheSpec(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, specJSON()) {
		t.Error("BENCHMARK.json differs from the spec in spec.go; regenerate it with `go run ./benchmark -spec > BENCHMARK.json`")
	}
}

// finished runs the result through the same completeness check a real
// run gets, then asserts what the check itself guarantees only
// indirectly: exactly the spec's names, each finite.
func finished(t *testing.T, res *runResult, err error) *runResult {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.finish(); err != nil {
		t.Fatal(err)
	}
	want := endToEnd
	if res.Traced {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		t.Fatalf("%s: %d metrics, spec lists %d", res.Workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: %s missing", res.Workload, m.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: %s = %v", res.Workload, m.Name, v.Value)
		}
		if v.Unit != m.Unit {
			t.Errorf("%s: %s in %q, spec says %q", res.Workload, m.Name, v.Unit, m.Unit)
		}
	}
	var buf bytes.Buffer
	if err := res.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last struct {
		Correct   *bool                      `json:"correct"`
		Attempted *uint64                    `json:"attempted"`
		Failed    *uint64                    `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", res.Workload, err)
	}
	if last.Correct == nil || !*last.Correct || last.Attempted == nil || *last.Attempted < 1 || last.Failed == nil || len(last.Metrics) != len(want) {
		t.Errorf("%s: malformed result line %s", res.Workload, lines[len(lines)-1])
	}
	return res
}

// TestSimWorkloadsSmoke runs every sim workload at P=60 for one
// simulated hour — too sparse for hits, so those two output checks are
// off — and the full ladder.
func TestSimWorkloadsSmoke(t *testing.T) {
	for _, c := range simCells {
		c := c
		full := c.config
		c.wantHits, c.wantRouted = false, false
		c.config = func(seed uint64) harness.Config {
			cfg := full(seed)
			cfg.Population = 60
			cfg.Duration = 1 * runtime.Hour
			return cfg
		}
		t.Run(c.name, func(t *testing.T) {
			res, err := runSimUntraced(c, 1, simPlan{coldReps: 1, minReps: 2})
			un := finished(t, res, err)
			res, err = runSimTraced(c, 1)
			tr := finished(t, res, err)
			// The traced run verified its span-backend rep against its own
			// untraced rep; this ties both to the untraced run.
			if un.Checks != tr.Checks {
				t.Errorf("traced run %+v, untraced run %+v", tr.Checks, un.Checks)
			}
			calls := func(layer string) float64 { return tr.Metrics[layer+".calls"].Value }
			if calls("sim.pop") != 1 || calls("sim.push") == 0 || calls("simnet.deliver") == 0 {
				t.Errorf("engine and simnet spans missing: %v", tr.Metrics)
			}
			if c.name == ringSteady && (calls("flower") != 0 || calls("gossip") != 0) {
				t.Errorf("ring-steady ran flower (%v) or gossip (%v) code", calls("flower"), calls("gossip"))
			}
			if c.name != ringSteady && calls("flower") == 0 {
				t.Error("no flower span on a flower cell")
			}
		})
	}
}

// TestWireWorkloadSmoke runs wire-rpc with windows of 2 000 RPCs.
func TestWireWorkloadSmoke(t *testing.T) {
	plan := wirePlan{
		setups: 2, warmupRPCs: 500,
		windows: 2, windowRPCs: 2000, throughputK: 64,
		latencySeconds: 0.5, latencyK: 8,
		largeSeconds: 0.1, largeK: 16,
		legSeconds: 0.1,
	}
	res, err := runWireUntraced(1, plan)
	finished(t, res, err)
	res, err = runWireTraced(1, plan)
	tr := finished(t, res, err)
	for name, v := range tr.Metrics {
		if (strings.HasPrefix(name, "sim.") || strings.HasPrefix(name, "simnet.")) && v.Value != 0 {
			t.Errorf("wire-rpc reports %s = %v; no sim code runs on it", name, v.Value)
		}
	}
	if tr.Metrics["rtt_p50_us"].Value <= 0 || tr.Metrics["socknet.bytes_per_frame"].Value <= 0 {
		t.Errorf("latency and wire metrics missing: %v", tr.Metrics)
	}
}

func TestCompareVerdicts(t *testing.T) {
	write := func(name string, allocs float64, samples []float64, fingerprint string, failed uint64) string {
		res := suiteResults{Seed: 1, Workloads: map[string]*workloadRuns{}}
		for _, w := range workloads {
			r := newRunResult(w.Name, 1, false)
			r.Attempted, r.Failed = 100, failed
			r.Checks = simChecks{Fingerprint: fingerprint}
			for _, m := range endToEnd {
				r.Metrics[m.Name] = metricValue{Value: 1, Unit: m.Unit}
			}
			r.Metrics["allocs_per_op"] = metricValue{Value: allocs, Unit: "count", Samples: samples}
			res.Workloads[w.Name] = &workloadRuns{Untraced: r}
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{1, 1.01, 0.99, 1, 1.02}
	base := write("base.json", 1, steady, "aa", 0)
	for _, tc := range []struct {
		name      string
		path      string
		regressed bool
		want      string
	}{
		{"same", write("same.json", 1.02, steady, "aa", 0), false, "same"},
		{"worse", write("worse.json", 1.3, steady, "aa", 0), true, "worse"},
		{"better", write("better.json", 0.7, steady, "aa", 0), false, "better"},
		{"noisy", write("noisy.json", 1.02, []float64{0.7, 0.9, 1.05, 1.3, 1.6}, "aa", 0), false, "unresolved"},
		{"failing", write("failing.json", 1, steady, "aa", 3), true, "failed share rose"},
		{"changed", write("changed.json", 1, steady, "bb", 0), false, "check values differ"},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, base, tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: regressed=%v, want %v and %q in:\n%s", tc.name, regressed, tc.regressed, tc.want, out.String())
		}
	}
}

// Stolen time comes off a section's wall-clock, but never all of it:
// with two CPUs stolen at once more than the section's length is stolen.
func TestOwnWallLeavesOutStolenTime(t *testing.T) {
	for _, c := range []struct{ wall, stolen, want float64 }{
		{2, 0, 2},
		{2, 0.5, 1.5},
		{2, 3, 0.2},
	} {
		if got := (usageDelta{wallS: c.wall, stolenS: c.stolen}).ownWallS(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("wall %g s, stolen %g s: own wall-clock %g s, want %g", c.wall, c.stolen, got, c.want)
		}
	}
	if s := stolenSeconds(); s < 0 || math.IsNaN(s) {
		t.Errorf("stolenSeconds() = %v", s)
	}
}
