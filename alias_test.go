package flowercdn

import (
	"reflect"
	"testing"

	"flowercdn/internal/harness"
	"flowercdn/internal/sweep"
)

// The façade hands out the internal values themselves: the result types
// are aliases, so nothing is copied and nothing can drift.
func TestResultTypesAreTheInternalOnes(t *testing.T) {
	for _, c := range []struct{ facade, internal any }{
		{(*Result)(nil), (*harness.Result)(nil)},
		{Protocol(""), harness.Protocol("")},
		{(*SweepResult)(nil), (*sweep.Result)(nil)},
		{SweepCellResult{}, sweep.CellResult{}},
		{ScalabilityRow{}, harness.Table2Row{}},
	} {
		if f, i := reflect.TypeOf(c.facade), reflect.TypeOf(c.internal); f != i {
			t.Errorf("%v is not %v", f, i)
		}
	}
	if Flower != harness.ProtocolFlower || OriginOnly != harness.ProtocolOriginOnly {
		t.Error("protocol constants drifted from the harness's")
	}
}

// A distributed sweep's per-seed Runs are rebuilt from the records the
// workers sent home, and a record is the Summary: everything else a
// Result can hold stays zero, and the Summary equals the in-process
// run's, field for field.
func TestDistSweepRunsCarryTheSummaryOnly(t *testing.T) {
	cells := Grid{Base: sweepTiny(), Protocols: []Protocol{Flower, Squirrel}}.Cells()
	seeds := SeedSet(1, 2)
	local, err := Sweep(cells, seeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	workerErr := make(chan error, 1)
	dist, err := DistSweepCoordinator(cells, seeds, DistSweepOptions{
		Listen: "127.0.0.1:0",
		OutDir: t.TempDir(),
		OnListen: func(addr string) error {
			go func() {
				workerErr <- DistSweepWorker(cells, seeds, DistSweepWorkerOptions{Coordinator: addr})
			}()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-workerErr; err != nil {
		t.Fatalf("worker: %v", err)
	}
	if dist.CSV() != local.CSV() || dist.SeriesCSV() != local.SeriesCSV() {
		t.Fatal("distributed sweep's CSVs differ from the in-process sweep's")
	}
	for c, cell := range dist.Cells {
		for i, run := range cell.Runs {
			want := local.Cells[c].Runs[i]
			if !reflect.DeepEqual(run.Summary, want.Summary) {
				t.Errorf("%s seed %d: summary differs:\n dist %+v\nlocal %+v", cell.Name, seeds[i], run.Summary, want.Summary)
			}
			if !reflect.DeepEqual(run, &Result{Summary: run.Summary}) {
				t.Errorf("%s seed %d: a rebuilt run carries more than its Summary: %+v", cell.Name, seeds[i], run)
			}
			if want.Lookup.Total == 0 || want.EventsProcessed == 0 {
				t.Errorf("%s seed %d: the in-process run should hold the full Result", cell.Name, seeds[i])
			}
		}
	}
}

// The three headline points are the expressions they replaced (the
// façade's wrap, flowersim's report and FormatFig4/5 each spelled them
// out), and land where the paper's comparison puts them.
func TestHeadlinePointsMatchTheDistributions(t *testing.T) {
	f, s, err := RunComparison(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{f, s} {
		if got, want := r.LookupWithin150ms(), r.Lookup.CDFAt(150); got != want {
			t.Errorf("%s: LookupWithin150ms = %g, want %g", r.Protocol, got, want)
		}
		if got, want := r.LookupBeyond1200ms(), r.Lookup.TailFraction(1200); got != want {
			t.Errorf("%s: LookupBeyond1200ms = %g, want %g", r.Protocol, got, want)
		}
		if got, want := r.TransferWithin100ms(), r.Transfer.CDFAt(100); got != want {
			t.Errorf("%s: TransferWithin100ms = %g, want %g", r.Protocol, got, want)
		}
		// 150 and 1200 are edges of one histogram: the two shares cannot
		// overlap, and a run with queries has some mass somewhere.
		if r.Lookup.Total == 0 || r.LookupWithin150ms()+r.LookupBeyond1200ms() > 1 {
			t.Errorf("%s: %g within 150 ms + %g beyond 1200 ms of %d lookups", r.Protocol,
				r.LookupWithin150ms(), r.LookupBeyond1200ms(), r.Lookup.Total)
		}
	}
	if f.LookupWithin150ms() <= s.LookupWithin150ms() || f.TransferWithin100ms() <= s.TransferWithin100ms() {
		t.Errorf("flower should lead squirrel on both headline points: lookup %g vs %g, transfer %g vs %g",
			f.LookupWithin150ms(), s.LookupWithin150ms(), f.TransferWithin100ms(), s.TransferWithin100ms())
	}
}
