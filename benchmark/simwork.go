package main

import (
	"fmt"
	goruntime "runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"flowercdn/benchmark/spans"
	"flowercdn/internal/harness"
	"flowercdn/internal/proto"
	_ "flowercdn/internal/protocols" // register every built-in protocol driver
	"flowercdn/internal/runtime"
)

// spanBackend is the name the span-recording sim backend registers
// under.
const spanBackend = "sim-spans"

// simCell is one sim workload: a harness configuration and the output
// checks that go with it.
type simCell struct {
	name   string
	config func(seed uint64) harness.Config
	// wantHits: flower cells must serve some queries from the overlay;
	// wantRouted: ring cells must route some queries over Chord.
	wantHits, wantRouted bool
}

// baseCell is harness.QuickConfig (20 sites / 3 active / 200 objects,
// k=6, m=60 min, a query every 6 min) with the driver options the
// flowercdn façade passes for it.
func baseCell(seed uint64) harness.Config {
	cfg := harness.QuickConfig()
	cfg.Seed = seed
	cfg.MeasureMem = true
	cfg.Options = proto.Options{
		"gossip-period":      60 * runtime.Minute,
		"keepalive-interval": 60 * runtime.Minute,
		"push-threshold":     0.5,
		"dir-collaboration":  true,
		"exact-summaries":    false,
		"load-limit":         30,
		"cache-policy":       "none",
		"cache-capacity":     0,
	}
	return cfg
}

var simCells = []simCell{
	{
		name:     petalSteady,
		wantHits: true,
		config: func(seed uint64) harness.Config {
			cfg := baseCell(seed)
			cfg.Protocol = harness.ProtocolFlower
			cfg.Population = 1000
			cfg.Duration = 4 * runtime.Hour
			return cfg
		},
	},
	{
		name:     petalBusy,
		wantHits: true,
		config: func(seed uint64) harness.Config {
			cfg := baseCell(seed)
			cfg.Protocol = harness.ProtocolFlower
			cfg.Population = 400
			cfg.Duration = 3 * runtime.Hour
			cfg.Workload.Sites = 6
			cfg.Workload.ActiveSites = 6
			cfg.Workload.QueryMeanInterval = 1 * runtime.Minute
			cfg.Options["gossip-period"] = 10 * runtime.Minute
			cfg.Options["keepalive-interval"] = 10 * runtime.Minute
			cfg.Options["cache-policy"] = "lru"
			cfg.Options["cache-capacity"] = 40
			return cfg
		},
	},
	{
		name:       ringSteady,
		wantRouted: true,
		config: func(seed uint64) harness.Config {
			cfg := baseCell(seed)
			cfg.Protocol = harness.ProtocolSquirrel
			cfg.Population = 250
			cfg.Duration = 3 * runtime.Hour
			return cfg
		},
	},
	{
		name:     bigcellJoin,
		wantHits: true,
		config: func(seed uint64) harness.Config {
			cfg := baseCell(seed)
			cfg.Protocol = harness.ProtocolFlower
			cfg.Population = 20000
			cfg.Duration = 1 * runtime.Hour
			cfg.Workload.Sites = 12
			cfg.Workload.ActiveSites = 2
			cfg.Workload.ObjectsPerSite = 150
			return cfg
		},
	},
}

func findSimCell(name string) (simCell, bool) {
	for _, c := range simCells {
		if c.name == name {
			return c, true
		}
	}
	return simCell{}, false
}

// simPlan sizes one run of a sim workload.
type simPlan struct {
	// coldReps reps (at least one) open the run, each from a scavenged
	// heap; their median duration is the set-up cost. minReps timed reps
	// follow at least, more while seconds last.
	coldReps, minReps int
	seconds           float64
}

// rep is one harness.Run with the process counters it consumed.
type rep struct {
	res  *harness.Result
	cost usageDelta
}

// runRep runs the cell once. Every rep starts from a collected heap, so
// none pays for sweeping its predecessor's world.
func runRep(cfg harness.Config) (rep, error) {
	goruntime.GC()
	before := snapshot()
	res, err := harness.Run(cfg)
	if err != nil {
		return rep{}, err
	}
	return rep{res: res, cost: snapshot().since(before)}, nil
}

// unit is the work a rep did, in the unit its end-to-end metrics are
// normalised by: simulated messages sent (one-way sends, RPC requests
// and RPC responses). Unlike the engine's event count it is a property
// of the protocols, not of how the engine schedules them; and unlike
// resolved queries or peer-hours it tracks what a rep costs from seed
// to seed — across ten seeds allocations per message spread 0.3–1.9%,
// per peer-hour up to 9%, per query up to 14%.
func (r rep) unit() unit {
	return unit{cost: r.cost, ops: float64(r.res.NetStats.MessagesSent), wireBytes: float64(r.res.NetStats.BytesSent)}
}

// simChecks are the values that must be identical across every rep of
// a cell, traced or not: if one differs, simulated behaviour changed,
// not only its speed.
type simChecks struct {
	Fingerprint  string `json:"fingerprint"`
	Events       uint64 `json:"events"`
	MessagesSent uint64 `json:"messages_sent"`
	Queries      uint64 `json:"queries"`
}

func checksOf(res *harness.Result) simChecks {
	return simChecks{
		Fingerprint:  fmt.Sprintf("%016x", res.Fingerprint),
		Events:       res.EventsProcessed,
		MessagesSent: res.NetStats.MessagesSent,
		Queries:      res.Queries,
	}
}

// verify applies the cell's output checks to one rep.
func (c simCell) verify(res *harness.Result, want *simChecks) error {
	got := checksOf(res)
	if *want == (simChecks{}) {
		*want = got
	} else if got != *want {
		return fmt.Errorf("%s: rep diverged: %+v, first rep %+v", c.name, got, *want)
	}
	if res.Queries == 0 {
		return fmt.Errorf("%s: no queries issued", c.name)
	}
	if c.wantHits && res.HitRatio <= 0 {
		return fmt.Errorf("%s: hit ratio %g, want > 0", c.name, res.HitRatio)
	}
	if c.wantRouted && res.Proto["routed_queries"] <= 0 {
		return fmt.Errorf("%s: no query was routed over the ring", c.name)
	}
	return nil
}

// runSimUntraced measures the end-to-end metrics of a cell.
func runSimUntraced(c simCell, seed uint64, plan simPlan) (*runResult, error) {
	cfg := c.config(seed)
	out := newRunResult(c.name, seed, false)
	var want simChecks

	user, sys := cpuTimes()
	setup := setupCost{readyCPU: user + sys}
	var last rep
	for i := 0; i < plan.coldReps; i++ {
		if i > 0 {
			// Hand the heap back so this rep pays for its pages and its
			// GC ramp again, as the first rep of a process does.
			debug.FreeOSMemory()
		}
		r, err := runRep(cfg)
		if err != nil {
			return nil, err
		}
		if err := c.verify(r.res, &want); err != nil {
			return nil, err
		}
		setup.units = append(setup.units, r.cost)
		last = r
	}

	var units []unit
	var speed speedometer
	speed.read()
	timed := time.Now()
	for len(units) < plan.minReps || time.Since(timed).Seconds()+last.cost.wallS/2 <= plan.seconds {
		r, err := runRep(cfg)
		if err != nil {
			return nil, err
		}
		if err := c.verify(r.res, &want); err != nil {
			return nil, err
		}
		last = r
		units = append(units, r.unit())
		speed.read()
	}

	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	out.Attempted = last.res.Queries
	out.Failed = last.res.Unresolved
	out.Checks = want
	out.setSetup(setup)
	out.setFromUnits(units, &speed)
	out.set("peak_rss_mb", rss)
	return out, nil
}

// spanCalibrationPairs is how many empty spans the start-up
// calibration times.
const spanCalibrationPairs = 1_000_000

// tracer is the process's one registration of the span backend: the
// calibration it was registered with and the runtime of the run the
// harness started on it last.
var tracer struct {
	once sync.Once
	cost spans.Cost
	last *spans.Runtime
}

// registerSpanBackend calibrates the recorder and registers the
// span-recording backend, once per process.
func registerSpanBackend() {
	tracer.once.Do(func() {
		tracer.cost = spans.Calibrate(spanCalibrationPairs)
		spans.Register(spanBackend, tracer.cost, func(rt *spans.Runtime) { tracer.last = rt })
	})
}

// tracedRep is the outcome of one traced rep.
type tracedRep struct {
	rep
	rt *spans.Runtime
	// byLayer is self seconds per span name, with the harness time
	// outside the run loop added to "harness"; calls counts the spans.
	byLayer map[string]float64
	calls   map[string]uint64
}

// runTracedRep runs the cell once on the span backend and reconciles
// the spans with the rep's wall-clock.
func runTracedRep(c simCell, cfg harness.Config, want *simChecks) (*tracedRep, error) {
	registerSpanBackend()
	cfg.Backend = spanBackend
	r, err := runRep(cfg)
	if err != nil {
		return nil, err
	}
	if err := c.verify(r.res, want); err != nil {
		return nil, fmt.Errorf("traced rep: %w", err)
	}
	rt := tracer.last
	tracer.last = nil
	if rt.Rec.Depth() != 0 {
		return nil, fmt.Errorf("%s: %d spans still open after the run", c.name, rt.Rec.Depth())
	}
	t := &tracedRep{rep: r, rt: rt, byLayer: map[string]float64{}, calls: map[string]uint64{}}
	var selfNs int64
	for name, agg := range rt.Rec.Snapshot() {
		t.byLayer[name] = float64(agg.SelfNs) / 1e9
		t.calls[name] = agg.Calls
		selfNs += agg.SelfNs
	}
	// Building the world before Run and collecting the result after it
	// is harness code no span covers.
	wallNs := int64(r.cost.wallS * 1e9)
	outside := wallNs - rt.RunNs
	t.byLayer["harness"] += float64(outside) / 1e9
	// Every nanosecond of the traced rep is now either some layer's
	// self time or recording cost taken off one.
	accounted := selfNs + rt.Rec.OverheadNs() + outside
	if diff := float64(wallNs-accounted) / float64(wallNs); diff > 0.02 || diff < -0.02 {
		return nil, fmt.Errorf("%s: spans account for %d ns of a %d ns traced rep", c.name, accounted, wallNs)
	}
	return t, nil
}

// runSimTraced reports the per-layer metrics of a cell: exact counters
// from an untraced reference rep, spans from a traced rep of the same
// cell, and the ladder rungs reported under this workload.
func runSimTraced(c simCell, seed uint64) (*runResult, error) {
	cfg := c.config(seed)
	out := newRunResult(c.name, seed, true)
	var want simChecks

	ref, err := runRep(cfg)
	if err != nil {
		return nil, err
	}
	if err := c.verify(ref.res, &want); err != nil {
		return nil, err
	}
	var heap goruntime.MemStats
	goruntime.ReadMemStats(&heap)

	tr, err := runTracedRep(c, cfg, &want)
	if err != nil {
		return nil, err
	}

	res := ref.res
	out.Attempted = res.Queries
	out.Failed = res.Unresolved
	out.Checks = want
	out.Spans = tr.rt.Rec.Snapshot()

	tracedWall := tr.cost.wallS
	named := 0.0
	for _, l := range spanLayers {
		out.set(l+".self_s", tr.byLayer[l])
		out.set(l+".calls", float64(tr.calls[l]))
		out.set(l+".share", tr.byLayer[l]/tracedWall)
		named += tr.byLayer[l]
	}
	for name, s := range tr.byLayer {
		if !slices.Contains(spanLayers, name) {
			out.note("span %q outside the reported layers: %.4f s self, %d calls", name, s, tr.calls[name])
		}
	}
	out.set("trace.overhead_ratio", tracedWall/ref.cost.wallS)
	out.set("trace.span_cost_ns", float64(tracer.cost.InsideNs+tracer.cost.OutsideNs))
	out.set("trace.unattributed_share", 1-named/tracedWall)
	depths := tr.rt.QueueDepths()
	if len(depths) == 0 {
		return nil, fmt.Errorf("%s: traced rep too short to sample the queue depth", c.name)
	}
	depthP50 := int(depths[len(depths)/2])
	out.set("sim.queue_depth_p50", float64(depthP50))
	out.set("sim.queue_depth_max", float64(depths[len(depths)-1]))

	events := float64(res.EventsProcessed)
	out.set("sim.events", events)
	out.set("sim.ns_per_event", ref.cost.wallS*1e9/events)
	out.set("sim.events_per_s", events/ref.cost.wallS)
	out.set("simnet.messages_sent", float64(res.NetStats.MessagesSent))
	out.set("simnet.messages_dropped", float64(res.NetStats.MessagesDropped))
	out.set("simnet.delivered_ratio", 1-float64(res.NetStats.MessagesDropped)/float64(res.NetStats.MessagesSent))
	out.set("simnet.requests_issued", float64(res.NetStats.RequestsIssued))
	out.set("simnet.requests_timed_out", float64(res.NetStats.RequestsTimedOut))
	out.set("chord.routed_queries", res.Proto["routed_queries"])
	out.set("chord.mean_hops", res.MeanHops)
	out.set("flower.hit_ratio", res.HitRatio)
	out.set("flower.gossip_hits", float64(res.GossipHits))
	out.set("flower.directory_hits", float64(res.DirectoryHits))
	out.set("churn.peers_spawned", res.Proto["peers_spawned"])
	out.set("proc.cpu_user_s", ref.cost.userS)
	out.set("proc.cpu_sys_s", ref.cost.sysS)
	out.set("proc.gc_cycles", ref.cost.gcCycles)
	out.set("proc.gc_pause_ms", ref.cost.gcPauseMs)
	out.set("proc.heap_peak_mb", float64(heap.HeapSys)/(1<<20))
	out.set("wall_s", ref.cost.wallS)
	out.set("failed_frac", float64(res.Unresolved)/float64(res.Queries))
	out.set("live_bytes_per_node", res.MemStats.BytesPerNode)

	shape := ladderShape{
		queueDepth:    depthP50,
		periodicShare: float64(tr.rt.PeriodicFired) / float64(tr.rt.PeriodicFired+tr.rt.OneShotFired),
		insituNsPerEvent: 1e9 * (tr.byLayer[spans.SpanPop] + tr.byLayer[spans.SpanPush]) /
			events,
	}
	switch c.name {
	case ringSteady:
		err = ringLadder(out, shape, seed)
	case petalBusy:
		err = petalLadder(out, seed)
	default:
		return out, nil
	}
	if err != nil {
		return nil, err
	}
	// Both ladder workloads also price the codecs on their own traffic.
	if err := codecLadder(out, tr.rt.Corpus()); err != nil {
		return nil, err
	}
	return out, nil
}
