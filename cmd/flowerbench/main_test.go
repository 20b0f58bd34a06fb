package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"flowercdn"
	"flowercdn/internal/cli"
)

// TestWorkerArgsCarryOnlyTheSweep is the regression test for spawned
// workers inheriting the coordinator's output flags: the old filter
// worked on raw arguments and let the --flag spelling through, so
// `--cpuprofile cpu.out` had parent and children all writing cpu.out.
func TestWorkerArgsCarryOnlyTheSweep(t *testing.T) {
	o := declare(flag.NewFlagSet("flowerbench", flag.ContinueOnError))
	err := o.flags.Parse([]string{
		"--cpuprofile", "x", "--memprofile=m", "-csv=y", "--series-csv", "s", "--out-dir", "z", "-dist-verbose",
		"-dist-coordinator", ":0", "--spawn-workers", "2", "-workers", "3",
		"-grid", "compare", "--scenario", "flash-crowd", "-seeds=2", "--seed", "4", "-full", "-p", "100",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"-dist-worker", "127.0.0.1:9",
		"-full=true", "-grid=compare", "-p=100", "-scenario=flash-crowd", "-seed=4", "-seeds=2"}
	got := o.workerArgs("127.0.0.1:9")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("worker args = %v\nwant %v", got, want)
	}

	// The worker re-derives the same sweep from them.
	w := declare(flag.NewFlagSet("flowerbench", flag.ContinueOnError))
	if err := w.flags.Parse(got); err != nil {
		t.Fatal(err)
	}
	if w.distWorker != "127.0.0.1:9" || w.dist.Listen != "" || w.spawnWorkers != 0 ||
		w.cpuProfile != "" || w.memProfile != "" || w.csv != "" || w.seriesCSV != "" || w.dist.OutDir != "dist-out" {
		t.Errorf("worker inherited coordinator-only flags: %+v", w)
	}
	if w.grid != o.grid || w.scenario != o.scenario || w.seeds != o.seeds || w.seed != o.seed || w.full != o.full || w.pop != o.pop {
		t.Errorf("worker sweep %+v differs from coordinator's %+v", w, o)
	}
}

// TestFlagNamesArePinned holds the command line to the pinned flag set:
// a new knob, or a flag gone, is an edit to this list.
func TestFlagNamesArePinned(t *testing.T) {
	want := []string{
		"cpuprofile", "csv", "dist-coordinator", "dist-verbose", "dist-worker",
		"extra", "fig", "full", "grid", "memprofile", "out-dir", "p", "scenario",
		"seed", "seeds", "series-csv", "spawn-workers", "table", "trace", "workers",
	}
	fs := flag.NewFlagSet("flowerbench", flag.ContinueOnError)
	declare(fs)
	var got []string
	fs.VisitAll(func(fl *flag.Flag) { got = append(got, fl.Name) })
	if !slices.Equal(got, want) {
		t.Errorf("flowerbench flags (%d) = %v\nwant the pinned %d: %v", len(got), got, len(want), want)
	}
}

// TestGridsExpand keeps every named grid at its documented shape.
func TestGridsExpand(t *testing.T) {
	base, pops := flowercdn.QuickConfig(), []int{200, 300, 400, 500}
	for name, want := range map[string]struct {
		cells  int
		protos []flowercdn.Protocol
	}{
		"compare":     {len(flowercdn.CompareProtocols()), flowercdn.CompareProtocols()},
		"scalability": {8, []flowercdn.Protocol{flowercdn.Flower, flowercdn.Squirrel}},
		"churn":       {8, []flowercdn.Protocol{flowercdn.Flower, flowercdn.Squirrel}},
		"gossip":      {4, []flowercdn.Protocol{flowercdn.Flower}},
		"capacity":    {6, []flowercdn.Protocol{flowercdn.Flower}},
	} {
		cells, err := buildGrid(base, pops, name)
		if err != nil || len(cells) != want.cells {
			t.Errorf("grid %s: %d cells, err %v; want %d", name, len(cells), err, want.cells)
		}
		seen := map[flowercdn.Protocol]bool{}
		for _, c := range cells {
			seen[c.Config.Protocol] = true
		}
		for _, p := range want.protos {
			delete(seen, p)
		}
		if len(seen) != 0 {
			t.Errorf("grid %s runs unexpected protocols %v", name, seen)
		}
	}
	if _, err := buildGrid(base, pops, "bogus"); err == nil {
		t.Error("unknown grid: no error")
	}
}

// TestMain doubles as a -spawn-workers child: the coordinator forks the
// running executable, which here is the test binary.
func TestMain(m *testing.M) {
	if os.Getenv("FLOWERBENCH_TEST_CHILD") != "" {
		cli.Main(run)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// syncBuffer is a bytes.Buffer safe for the concurrent writes of the
// workers' relays.
type syncBuffer struct {
	mu sync.Mutex
	bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.Buffer.Write(p)
}

// TestRun drives the command once per mode at a tiny cell: what each
// prints, and the error of each way a command line can fail.
func TestRun(t *testing.T) {
	t.Setenv("FLOWERBENCH_TEST_CHILD", "1") // read by the -spawn-workers children only
	defer func(pops []int) { quickPops = pops }(quickPops)
	quickPops = []int{20}
	dir := t.TempDir()
	in := func(name string) string { return filepath.Join(dir, name) }
	for _, tc := range []struct {
		name   string
		args   []string
		stdout []string // substrings, in order
		err    string   // a substring of the error; "" = success
	}{
		{"artifacts", []string{"-p", "20"}, []string{
			"Table 1", `running flower vs squirrel on cell "-p=20"...`, "done in ",
			"Figure 3", "Figure 4", "Figure 5", "flower P=20", "squirrel P=20",
			"running Table 2 sweep over P=[20]...", "Table 2", "PetalUp extension", "  classic  : hit ", "  petalup  : hit "}, ""},
		{"one table", []string{"-table", "1"}, []string{"Table 1"}, ""},
		{"paper scale", []string{"-table", "1", "-full"}, []string{"Table 1", "3000"}, ""},
		{"trace", []string{"-trace", "-p", "20"}, []string{
			`=== flower, cell "-p=20" (`, "traces: ", "link-ms", "=== petalup", "=== squirrel", "=== chord-global", "=== koorde-global"}, ""},
		{"grid", []string{"-grid", "compare", "-scenario", "flash-crowd", "-seeds", "1", "-p", "20", "-csv", in("agg.csv"), "-series-csv", "-"}, []string{
			`sweep "compare" on cell `, "(scenario flash-crowd): 5 cells x 1 seeds...", "done in ", "flower", "koorde-global",
			"wrote " + in("agg.csv"), "cell,protocol,population,seed,window_start_ms"}, ""},
		{"distributed", []string{"-grid", "gossip", "-seeds", "1", "-p", "20", "-dist-coordinator", "127.0.0.1:0",
			"-spawn-workers", "1", "-out-dir", in("out"), "-dist-verbose"}, []string{
			`distributed sweep "gossip"`, "out-dir " + in("out"), "coordinator listening on 127.0.0.1:",
			"[coord] ", "[w0] shutdown: sweep complete", "done in ", "flower/g=15", "flower/g=120"}, ""},
		// The same coordinator again, with no worker: it finishes from the
		// records the first one left in -out-dir.
		{"resumed", []string{"-grid", "gossip", "-seeds", "1", "-p", "20", "-dist-coordinator", "127.0.0.1:0",
			"-out-dir", in("out"), "-dist-verbose"}, []string{
			"[coord] resumed 4 completed job(s)", "coordinator listening on 127.0.0.1:", "(4 runs, 0 workers)", "flower/g=120"}, ""},

		{"bad flag", []string{"-bogus"}, nil, "-bogus"},
		{"figure 7", []string{"-fig", "7", "-p", "100"}, nil, "-fig 7: no such figure (have 3, 4, 5; 0 = all)"},
		{"figure 1", []string{"-fig", "1"}, nil, "-fig 1: no such figure"},
		{"table 3", []string{"-table", "3"}, nil, "-table 3: no such table (have 1, 2; 0 = all)"},
		{"extra foo", []string{"-extra", "foo"}, nil, `-extra "foo": no such experiment (have petalup)`},
		{"bad grid", []string{"-grid", "bogus"}, nil, "unknown grid"},
		{"bad scenario", []string{"-grid", "compare", "-scenario", "bogus"}, nil, "bogus"},
		{"no seeds", []string{"-grid", "compare", "-seeds", "0"}, nil, "at least one seed"},
		{"unwritable csv", []string{"-grid", "compare", "-csv", in("no/such/dir.csv")}, nil, "no such file"},
		{"distributed without grid", []string{"-dist-coordinator", ":0"}, nil, "distributed mode needs -grid"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout syncBuffer
			var stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
				t.Fatalf("run %v: error %v, want %q", tc.args, err, tc.err)
			}
			out := stdout.String()
			if tc.stdout == nil && out != "" {
				t.Errorf("a failed command line printed:\n%s", out)
			}
			for _, want := range tc.stdout {
				i := strings.Index(out, want)
				if i < 0 {
					t.Fatalf("stdout lacks %q in order:\n%s", want, stdout.String())
				}
				out = out[i+len(want):]
			}
		})
	}
}
