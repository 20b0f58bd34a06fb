package distsweep

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"flowercdn/internal/harness"
	"flowercdn/internal/metrics"
	_ "flowercdn/internal/protocols" // register the built-in drivers
	"flowercdn/internal/runtime"
	"flowercdn/internal/sim"
	"flowercdn/internal/socknet"
	"flowercdn/internal/sweep"
)

// tinyConfig is a CI-sized run (a few hundred ms), matching the sweep
// package's determinism tests.
func tinyConfig(protocol harness.Protocol) harness.Config {
	cfg := harness.QuickConfig()
	cfg.Protocol = protocol
	cfg.Population = 100
	cfg.Duration = 2 * sim.Hour
	cfg.Workload.Sites = 8
	cfg.Workload.ActiveSites = 2
	cfg.Workload.ObjectsPerSite = 50
	return cfg
}

func tinySpec() sweep.Spec {
	return sweep.Spec{
		Cells: []sweep.Cell{
			{Name: "flower", Config: tinyConfig(harness.ProtocolFlower)},
			{Name: "squirrel", Config: tinyConfig(harness.ProtocolSquirrel)},
		},
		Seeds: []uint64{1, 2},
	}
}

// eventLog collects coordinator/worker events thread-safely.
type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) add(s string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, s)
}

func (l *eventLog) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.events...)
}

func (l *eventLog) contains(sub string) bool {
	for _, e := range l.all() {
		if strings.Contains(e, sub) {
			return true
		}
	}
	return false
}

func (l *eventLog) waitFor(t *testing.T, sub string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !l.contains(sub) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for event containing %q; have %v", sub, l.all())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// assertSameResult fails unless the distributed aggregates are
// bit-identical to the in-process ones: identical rendered tables and
// CSVs (the artifacts the equality gate in CI diffs) and DeepEqual
// cell statistics.
func assertSameResult(t *testing.T, want, got *sweep.Result) {
	t.Helper()
	if got.Table() != want.Table() {
		t.Errorf("tables differ:\nin-process:\n%s\ndistributed:\n%s", want.Table(), got.Table())
	}
	if got.CSV() != want.CSV() {
		t.Errorf("CSVs differ:\nin-process:\n%s\ndistributed:\n%s", want.CSV(), got.CSV())
	}
	if got.SeriesCSV() != want.SeriesCSV() {
		t.Errorf("series CSVs differ")
	}
	for i := range want.Cells {
		// Compare aggregate statistics only: a record is the run's Summary,
		// the per-run bulk stays on the worker, so the Runs slices differ
		// by design.
		w, g := want.Cells[i], got.Cells[i]
		w.Runs, g.Runs = nil, nil
		if !reflect.DeepEqual(w, g) {
			t.Errorf("cell %d aggregates differ:\nin-process: %+v\ndistributed: %+v", i, w, g)
		}
	}
}

// runWorkers runs n workers concurrently against the coordinator and
// waits for all of them; worker errors fail the test.
func runWorkers(t *testing.T, n int, cfg WorkerConfig) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wcfg := cfg
		wcfg.Name = fmt.Sprintf("w%d", i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(wcfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
}

// The headline property: a distributed sweep at 1, 2 and 4 workers
// produces aggregates bit-identical to sweep.Run of the same spec.
func TestDistributedMatchesInProcess(t *testing.T) {
	spec := tinySpec()
	want, err := sweep.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			coord, err := StartCoordinator(CoordinatorConfig{
				Listen: "127.0.0.1:0",
				Spec:   spec,
				OutDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			runWorkers(t, workers, WorkerConfig{Coordinator: coord.Addr(), Spec: spec})
			got, err := coord.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if got.Workers != workers {
				t.Errorf("Workers = %d, want %d", got.Workers, workers)
			}
			assertSameResult(t, want, got)
		})
	}
}

// Both codecs carry the protocol; gob is the compatibility fallback.
func TestDistributedGobCodec(t *testing.T) {
	spec := sweep.Spec{Cells: tinySpec().Cells[:1], Seeds: []uint64{1}}
	want, err := sweep.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runDistributed(t, spec, CoordinatorConfig{Codec: "gob"}, WorkerConfig{Codec: "gob"})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, want, got)
}

// runDistributed is the one-coordinator one-worker convenience used by
// the smaller tests. Zero fields of ccfg/wcfg are filled in.
func runDistributed(t *testing.T, spec sweep.Spec, ccfg CoordinatorConfig, wcfg WorkerConfig) (*sweep.Result, error) {
	t.Helper()
	ccfg.Listen = "127.0.0.1:0"
	ccfg.Spec = spec
	if ccfg.OutDir == "" {
		ccfg.OutDir = t.TempDir()
	}
	coord, err := StartCoordinator(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	wcfg.Coordinator = coord.Addr()
	wcfg.Spec = spec
	runWorkers(t, 1, wcfg)
	return coord.Wait()
}

// A worker that dies mid-job forfeits its lease on connection loss and
// the job is reassigned; the surviving worker finishes the sweep and
// the aggregates are still exact.
func TestWorkerKillMidJobReassigns(t *testing.T) {
	spec := tinySpec()
	want, err := sweep.Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	log := &eventLog{}
	coord, err := StartCoordinator(CoordinatorConfig{
		Listen:  "127.0.0.1:0",
		Spec:    spec,
		OutDir:  t.TempDir(),
		OnEvent: log.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// The doomed worker: a raw stream that takes one job and dies
	// without a word — the kill -9 shape of worker loss.
	s, err := socknet.DialStream(coord.Addr(), runtime.DefaultCodec, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(&Hello{Worker: "doomed", SpecSum: SpecSum(spec)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(); err != nil { // Welcome
		t.Fatal(err)
	}
	if err := s.Send(&JobRequest{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(); err != nil { // JobAssign
		t.Fatal(err)
	}
	s.Close() // dies holding the lease

	log.waitFor(t, "worker doomed lost")
	runWorkers(t, 1, WorkerConfig{Coordinator: coord.Addr(), Spec: spec})
	got, err := coord.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !log.contains("requeued 1 leased job") {
		t.Errorf("no requeue event; events: %v", log.all())
	}
	assertSameResult(t, want, got)
}

// A worker that goes silent past the lease forfeits the job to
// reassignment; when its (bogus) result finally lands under the old
// epoch it is discarded, so a straggler can never corrupt aggregates.
func TestStragglerResultDiscardedByEpoch(t *testing.T) {
	spec := tinySpec()
	want, err := sweep.Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	log := &eventLog{}
	coord, err := StartCoordinator(CoordinatorConfig{
		Listen:  "127.0.0.1:0",
		Spec:    spec,
		OutDir:  t.TempDir(),
		Lease:   200 * time.Millisecond,
		OnEvent: log.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// The straggler: takes a job, never heartbeats, stays connected.
	s, err := socknet.DialStream(coord.Addr(), runtime.DefaultCodec, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Send(&Hello{Worker: "straggler", SpecSum: SpecSum(spec)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(&JobRequest{}); err != nil {
		t.Fatal(err)
	}
	raw, err := s.Recv()
	if err != nil {
		t.Fatal(err)
	}
	assign, ok := raw.(*JobAssign)
	if !ok {
		t.Fatalf("expected a JobAssign, got %T", raw)
	}

	// The lease expires and the job is reassigned to a real worker
	// (heartbeating well inside the short lease)...
	log.waitFor(t, "lease(s) expired")
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- RunWorker(WorkerConfig{
			Coordinator: coord.Addr(), Spec: spec, Name: "real", Heartbeat: 50 * time.Millisecond,
		})
	}()
	log.waitFor(t, fmt.Sprintf("cell %d seed %d assigned to real (epoch %d)", assign.Cell, assign.Seed, assign.Epoch+1))

	// ...and only then does the straggler's poisoned result arrive.
	// Acceptance would skew every aggregate; the epoch discards it.
	if err := s.Send(&ResultMsg{Cell: assign.Cell, Seed: assign.Seed, Epoch: assign.Epoch,
		Rec: &RunRecord{Protocol: "flower", Backend: "sim", HitRatio: 999}}); err != nil {
		t.Fatal(err)
	}
	log.waitFor(t, "discarding stale result")

	if err := <-workerDone; err != nil {
		t.Fatal(err)
	}
	got, err := coord.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, want, got)
}

// A restarted coordinator resumes from the out-dir: completed records
// are loaded, their jobs never re-run, and the final aggregates are
// still bit-identical to the in-process sweep.
func TestCoordinatorRestartResume(t *testing.T) {
	spec := tinySpec()
	want, err := sweep.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	total := len(spec.Cells) * len(spec.Seeds)

	// Phase 1: complete at least two of the four jobs, then "crash".
	done := make(chan struct{})
	var once sync.Once
	c1, err := StartCoordinator(CoordinatorConfig{
		Listen: "127.0.0.1:0",
		Spec:   spec,
		OutDir: outDir,
		OnEvent: func(e string) {
			if strings.Contains(e, "(2/4)") {
				once.Do(func() { close(done) })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w1done := make(chan struct{})
	go func() {
		defer close(w1done)
		// The worker dies with the coordinator; any error is expected.
		RunWorker(WorkerConfig{Coordinator: c1.Addr(), Spec: spec, Name: "phase1"}) //nolint:errcheck
	}()
	<-done
	c1.Close()
	<-w1done

	// Phase 2: a fresh coordinator on the same out-dir runs only the
	// remainder. (The phase-1 worker may have landed another result
	// between the trigger event and Close, so "at least 2, not all".)
	log2 := &eventLog{}
	c2, err := StartCoordinator(CoordinatorConfig{
		Listen:  "127.0.0.1:0",
		Spec:    spec,
		OutDir:  outDir,
		OnEvent: log2.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	resumed := -1
	for _, e := range log2.all() {
		if _, err := fmt.Sscanf(e, "resumed %d completed", &resumed); err == nil {
			break
		}
	}
	if resumed < 2 || resumed >= total {
		t.Fatalf("resumed %d job(s), want at least 2 and fewer than %d; events: %v", resumed, total, log2.all())
	}

	ran := &eventLog{}
	runWorkers(t, 1, WorkerConfig{Coordinator: c2.Addr(), Spec: spec, OnEvent: ran.add})
	got, err := c2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// No completed job ran twice: the phase-2 worker executed exactly
	// the missing runs.
	runs := 0
	for _, e := range ran.all() {
		if strings.Contains(e, "running cell") {
			runs++
		}
	}
	if runs != total-resumed {
		t.Errorf("phase-2 worker ran %d job(s), want %d (events: %v)", runs, total-resumed, ran.all())
	}
	assertSameResult(t, want, got)
}

// An out-dir written under one spec refuses to resume another.
func TestOutDirSpecMismatch(t *testing.T) {
	spec := sweep.Spec{Cells: tinySpec().Cells[:1], Seeds: []uint64{1}}
	outDir := t.TempDir()
	if _, err := runDistributed(t, spec, CoordinatorConfig{OutDir: outDir}, WorkerConfig{}); err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Seeds = []uint64{9}
	_, err := StartCoordinator(CoordinatorConfig{Listen: "127.0.0.1:0", Spec: other, OutDir: outDir})
	if err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Fatalf("err = %v, want different-spec refusal", err)
	}
}

// A worker whose flags produced a different spec is refused by
// fingerprint before any job is assigned.
func TestWorkerSpecMismatchRefused(t *testing.T) {
	spec := tinySpec()
	coord, err := StartCoordinator(CoordinatorConfig{Listen: "127.0.0.1:0", Spec: spec, OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	drifted := spec
	drifted.Seeds = []uint64{1, 3}
	err = RunWorker(WorkerConfig{Coordinator: coord.Addr(), Spec: drifted})
	if err == nil || !strings.Contains(err.Error(), "spec mismatch") {
		t.Fatalf("err = %v, want spec-mismatch refusal", err)
	}
}

// Torn tails (a coordinator killed mid-append) are detected, truncated
// away and re-run, never half-loaded.
func TestRecordFileTornTail(t *testing.T) {
	dir := t.TempDir()
	sum := uint64(0xfeedface)
	l, recs, err := openCellLog(dir, 0, sum)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh file loaded %d records", len(recs))
	}
	rec := &RunRecord{Protocol: "flower", Backend: "sim", HitRatio: 0.5, Queries: 10}
	if err := l.append(0, rec); err != nil {
		t.Fatal(err)
	}
	if err := l.append(1, rec); err != nil {
		t.Fatal(err)
	}
	// Tear the file mid-record: a length prefix promising more bytes
	// than exist.
	if _, err := l.f.Write([]byte{0, 0, 0, 200, 'g', 'a', 'r', 'b'}); err != nil {
		t.Fatal(err)
	}
	l.close()

	l2, recs, err := openCellLog(dir, 0, sum)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0] == nil || recs[1] == nil {
		t.Fatalf("reloaded %d records, want the 2 intact ones", len(recs))
	}
	if recs[0].HitRatio != 0.5 || recs[0].Queries != 10 {
		t.Fatalf("record changed across reload: %+v", recs[0])
	}
	// The torn tail was truncated: appending and reloading stays clean.
	if err := l2.append(2, rec); err != nil {
		t.Fatal(err)
	}
	l2.close()
	l3, recs, err := openCellLog(dir, 0, sum)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.close()
	if len(recs) != 3 {
		t.Fatalf("after tear+append reload got %d records, want 3", len(recs))
	}
}

// Validate refuses the config shapes that cannot shard across
// processes.
func TestValidateRejectsNonDistributable(t *testing.T) {
	cases := map[string]func(*harness.Config){
		"backend": func(c *harness.Config) { c.Backend = "realtime" },
		"hooks":   func(c *harness.Config) { c.OnWindow = func(metrics.SeriesPoint) {} },
		"trace":   func(c *harness.Config) { c.Trace = &harness.TraceConfig{} },
		"mem":     func(c *harness.Config) { c.MeasureMem = true },
	}
	for name, mutate := range cases {
		spec := tinySpec()
		cfg := spec.Cells[0].Config
		mutate(&cfg)
		spec.Cells[0].Config = cfg
		if err := Validate(spec); err == nil {
			t.Errorf("%s: Validate accepted a non-distributable spec", name)
		}
	}
}
