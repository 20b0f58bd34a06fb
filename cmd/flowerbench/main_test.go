package main

import (
	"flag"
	"reflect"
	"slices"
	"testing"

	"flowercdn"
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
