package harness

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"flowercdn/internal/content"
	"flowercdn/internal/metrics"
	"flowercdn/internal/obs"
	"flowercdn/internal/proto"
	"flowercdn/internal/trace"
)

// cell is the one run of a cell — a config without its hooks — that
// runCell makes for every test that asks for it, with what runCell's
// own observers saw of it. The observers are read-only, so every test's
// view of the run fans out from them.
type cell struct {
	once    sync.Once
	res     *Result
	err     error
	digests digests
	// windows and streamed are what OnWindow and Trace.OnRecord saw.
	windows  []metrics.SeriesPoint
	streamed []*trace.Record
	// On a socket cell, the run's obs endpoint served liveMetrics and
	// liveTraces at the last window close, and servedAfter tells whether
	// it still served once Run had returned.
	liveMetrics, liveTraces string
	servedAfter             bool
	// summary renders res's Summary and Proto as the run left them.
	summary string
}

// digests is a run's population and query clock: the FNV-64a of every
// individual it minted (pool index, interest, locality, placement) and
// of every query tick (individual, interest, instant), with the counts.
type digests struct {
	population, ticks uint64
	minted, ticked    int
}

// cells holds the test binary's runs by cell key, and counts its Run
// calls per key, declared reruns apart.
var cells = struct {
	sync.Mutex
	memo         map[string]*cell
	runs, reruns map[string]int
}{memo: map[string]*cell{}, runs: map[string]int{}, reruns: map[string]int{}}

// memoOn is false under -count=N for N > 1: a repeated pass asks for its
// runs again, so every runCell then makes its own.
var memoOn = true

// cellKey is cfg without its hooks: what a run's Result depends on. A
// traced sim run is a cell of its own, since its Result carries the
// records; runCell traces every socket cell, so there tracing splits
// nothing.
func cellKey(cfg Config) string {
	traced := cfg.Trace != nil || cfg.ResolvedBackend() == "socket"
	sock := cfg.Socket // %#v prints what it points to
	cfg.Socket, cfg.Trace, cfg.Obs, cfg.OnWindow, cfg.OnCheckpoint = nil, nil, nil, nil, nil
	cfg.onMint, cfg.onTick, cfg.buildSim = nil, nil, nil
	return fmt.Sprintf("%#v %#v traced=%t", cfg, sock, traced)
}

// countedRun is the tests' one call of Run: it counts the run under its
// cell key, as a declared rerun when rerun is set.
func countedRun(cfg Config, rerun bool) (*Result, error) {
	noteRun(cfg, rerun)
	return Run(cfg)
}

// noteRun counts a run of cfg's cell that some other function makes.
func noteRun(cfg Config, rerun bool) {
	key := cellKey(cfg)
	cells.Lock()
	defer cells.Unlock()
	cells.runs[key]++
	if rerun {
		cells.reruns[key]++
	}
}

// runCell returns the run of cfg's cell, and fails t if the run failed.
// It is safe for concurrent use: a cell has one run in flight at a time,
// shared by every caller. cfg's OnWindow and Trace.OnRecord see the
// run's windows and records afterwards, in order. An OnCheckpoint hook
// inspects a live run, so a cell with one cannot be shared.
func runCell(t *testing.T, cfg Config) *Result {
	t.Helper()
	return cellOf(t, cfg).res
}

// cellOf is runCell with what runCell's observers saw.
func cellOf(t *testing.T, cfg Config) *cell {
	t.Helper()
	if cfg.buildSim != nil || cfg.onMint != nil || cfg.onTick != nil || cfg.Obs != nil {
		t.Fatal("runCell attaches its own observers, and a decorated run is a rerun")
	}
	key := cellKey(cfg)
	cells.Lock()
	c, shared := cells.memo[key]
	if !shared {
		c = &cell{}
		if memoOn {
			cells.memo[key] = c
		}
	}
	cells.Unlock()
	if shared && cfg.OnCheckpoint != nil {
		t.Fatal("another test runs this cell: an OnCheckpoint hook needs a cell of its own")
	}
	c.once.Do(func() { c.run(cfg) })
	if c.res == nil {
		t.Fatalf("cell run failed: %v", c.err)
	}
	if cfg.OnWindow != nil {
		for _, p := range c.windows {
			cfg.OnWindow(p)
		}
	}
	if cfg.Trace != nil && cfg.Trace.OnRecord != nil {
		for _, rec := range c.streamed {
			cfg.Trace.OnRecord(rec)
		}
	}
	return c
}

// run makes the cell's run with runCell's observers in place of cfg's.
func (c *cell) run(cfg Config) {
	pop, ticks := fnv.New64a(), fnv.New64a()
	index := map[*content.Store]int{} // an individual's store is its own
	cfg.onMint = func(idx int, ind proto.Identity) {
		pos := ind.Placement.Pos
		binary.Write(pop, binary.LittleEndian, [...]uint64{uint64(idx), uint64(ind.Site), uint64(ind.Placement.Loc),
			math.Float64bits(pos.X), math.Float64bits(pos.Y)})
		index[ind.Store] = idx
		c.digests.minted++
	}
	cfg.onTick = func(ind proto.Identity, at int64) {
		binary.Write(ticks, binary.LittleEndian, [...]uint64{uint64(index[ind.Store]), uint64(ind.Site), uint64(at)})
		c.digests.ticked++
	}
	cfg.OnWindow = func(p metrics.SeriesPoint) { c.windows = append(c.windows, p) }
	socket := cfg.ResolvedBackend() == "socket"
	if cfg.Trace != nil || socket {
		cfg.Trace = &TraceConfig{OnRecord: func(rec *trace.Record) { c.streamed = append(c.streamed, rec) }}
	}
	var addr string
	if socket {
		srv := obs.NewServer()
		var err error
		if addr, err = srv.Start("127.0.0.1:0"); err != nil {
			c.err = err
			return
		}
		defer srv.Stop() // Run stops it too, unless it failed first
		cfg.Obs = srv
		// The hook runs on the run loop, which serves nothing: the probe
		// only records, and a failed one keeps the last good body.
		cfg.OnWindow = func(p metrics.SeriesPoint) {
			c.windows = append(c.windows, p)
			if b, err := tryGet("http://" + addr + "/metrics"); err == nil {
				c.liveMetrics = b
			}
			if b, err := tryGet("http://" + addr + "/traces"); err == nil {
				c.liveTraces = b
			}
		}
	}
	c.res, c.err = countedRun(cfg, false)
	if socket {
		_, err := tryGet("http://" + addr + "/metrics")
		c.servedAfter = err == nil
	}
	c.digests.population, c.digests.ticks = pop.Sum64(), ticks.Sum64()
	if c.res != nil {
		c.summary = summaryOf(c.res)
	}
}

// summaryOf renders a Result's Summary, fingerprint included, and Proto.
func summaryOf(res *Result) string { return fmt.Sprintf("%v %v", res.Summary, res.Proto) }

// rerun is a fresh run of cfg, declared as the second run of its cell:
// a test whose claim is that two runs agree compares the memo's run with
// this one, never the memo's run with itself. cfg may carry any hook,
// buildSim included.
func rerun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := countedRun(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMain(m *testing.M) {
	flag.Parse()
	memoOn = flag.Lookup("test.count").Value.String() == "1"
	code := m.Run()
	if err := checkCells(); code == 0 && err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}

// checkCells holds the suite to its memo: every Run call is counted, a
// cell runs once and, where a test declares it, once more, and no test
// changed a shared Result.
func checkCells() error {
	errs := []error{checkRunCalls()}
	var runs, reruns int
	for key, n := range cells.runs {
		runs, reruns = runs+n, reruns+cells.reruns[key]
		if memoOn && n-cells.reruns[key] > 1 {
			errs = append(errs, fmt.Errorf("cell ran %d times, %d of them declared reruns: %s", n, cells.reruns[key], key))
		}
	}
	for key, c := range cells.memo {
		if c.res != nil && summaryOf(c.res) != c.summary {
			errs = append(errs, fmt.Errorf("a test changed the shared Result of %s", key))
		}
	}
	if testing.Verbose() {
		fmt.Printf("harness: %d Run calls over %d cells, %d of them declared reruns\n", runs, len(cells.runs), reruns)
	}
	return errors.Join(errs...)
}

// runCallers names, for each function that makes runs, the one test
// function that may call it, so that every run is counted: Run is called
// by countedRun only, and RunTable2 by the test that notes its runs.
var runCallers = map[string]string{"Run": "countedRun", "RunComparison": "", "RunTable2": "TestRunTable2SmallSweep"}

// checkRunCalls reads the package's test files for uncounted runs.
func checkRunCalls() error {
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		return err
	}
	fset := token.NewFileSet()
	var errs []error
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok {
						if caller, runs := runCallers[id.Name]; runs && caller != fn.Name.Name {
							errs = append(errs, fmt.Errorf("%s: %s calls %s, which is not counted: use runCell, or rerun",
								fset.Position(call.Pos()), fn.Name.Name, id.Name))
						}
					}
				}
				return true
			})
		}
	}
	return errors.Join(errs...)
}
