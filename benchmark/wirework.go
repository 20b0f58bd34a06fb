package main

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flowercdn/internal/content"
	"flowercdn/internal/metrics"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/socknet"
	"flowercdn/internal/topology"
	"flowercdn/internal/trace"
	"flowercdn/internal/wallclock"
	"flowercdn/internal/workload"
)

// wire-rpc: two socknet transports meshed in this process over
// loopback TCP, each on its own wall-clock run loop. Node A issues
// RPCs in a closed loop — every caller in this system waits for its
// reply — and node B answers. Traffic crosses the host's loopback
// interface, not a real link. The topology models zero latency, so
// every microsecond measured is serialization, batching, TCP and the
// run loops.

// wirePlan sizes one run of wire-rpc.
type wirePlan struct {
	// setups is how many times the mesh is formed, joined and warmed
	// up; the median is the set-up cost and the last mesh is measured.
	setups, warmupRPCs int
	// Throughput: windows of windowRPCs each at throughputK in flight.
	windows, windowRPCs, throughputK int
	// Latency (traced runs): latencyK in flight for latencySeconds.
	latencySeconds float64
	latencyK       int
	// Large frames (traced runs): a 24-hop trace record echoed at
	// largeK in flight for largeSeconds.
	largeSeconds float64
	largeK       int
	// Legs (traced runs): handler-stamped RPCs at latencyK in flight.
	legSeconds float64
}

func defaultWirePlan(seconds float64) wirePlan {
	return wirePlan{
		setups: 3, warmupRPCs: 20_000,
		windows: 10, windowRPCs: int(seconds * 20_000), throughputK: 512,
		latencySeconds: 0.3 * seconds, latencyK: 8,
		largeSeconds: 0.15 * seconds, largeK: 64,
		legSeconds: 0.1 * seconds,
	}
}

const (
	wireObjects    = 200
	wireTimeoutMs  = 5000
	largeFrameHops = 24
	// wireHorizonMs is how long the run loops would run if nobody
	// stopped them: a day, far beyond any run, yet small enough for the
	// clock's millisecond-to-Duration arithmetic.
	wireHorizonMs = 24 * 60 * 60 * 1000
)

// wireServer is node B's handler: it acknowledges fetches and echoes
// trace records. While stamping it also records, per in-flight slot,
// when the handler started and ended.
type wireServer struct {
	base     time.Time
	stamping atomic.Bool
	stamps   []legStamp // one per slot of the widest phase
}

type legStamp struct{ start, end atomic.Int64 }

func (s *wireServer) HandleMessage(runtime.NodeID, any) {}

func (s *wireServer) HandleRequest(_ runtime.NodeID, req any) (any, error) {
	switch r := req.(type) {
	case workload.FetchReq:
		if !s.stamping.Load() {
			return workload.FetchResp{Key: r.Key, Served: true}, nil
		}
		st := &s.stamps[r.Key.Site]
		st.start.Store(int64(time.Since(s.base)))
		resp := workload.FetchResp{Key: r.Key, Served: true}
		st.end.Store(int64(time.Since(s.base)))
		return resp, nil
	case *trace.Record:
		return r, nil
	default:
		return nil, fmt.Errorf("wire-rpc: server got unexpected request %T", req)
	}
}

// wireMesh is the two-transport world.
type wireMesh struct {
	a, b           *socknet.Transport
	clockA, clockB *wallclock.Clock
	client, server runtime.NodeID
	srv            *wireServer
	loops          sync.WaitGroup
}

// newWireMesh listens on two ephemeral loopback ports, forms the mesh,
// starts both run loops and joins one node on each side.
func newWireMesh(seed uint64, slots int) (*wireMesh, error) {
	topoCfg := topology.DefaultConfig()
	topoCfg.MinLatency, topoCfg.MaxLatency = 0, 0
	var listeners [2]net.Listener
	addrs := make([]string, 2)
	for i := range listeners {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("wire-rpc: %w", err)
		}
		listeners[i] = lis
		addrs[i] = lis.Addr().String()
	}
	var transports [2]*socknet.Transport
	var errs [2]error
	var wg sync.WaitGroup
	for i := range transports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			transports[i], errs[i] = socknet.DialListener(socknet.Config{
				Socket: runtime.SocketConfig{Listen: addrs[i], Peers: addrs, Group: i, Codec: "binary"},
				// Both sides build the same topology, as cooperating
				// processes do.
				Topo:         topology.MustNew(topoCfg, rnd.New(seed)),
				ReadyTimeout: 10 * time.Second,
			}, listeners[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, t := range transports {
				if t != nil {
					t.Close()
				}
			}
			return nil, fmt.Errorf("wire-rpc: mesh formation: %w", err)
		}
	}
	m := &wireMesh{
		a: transports[0], b: transports[1],
		clockA: wallclock.NewClock(), clockB: wallclock.NewClock(),
		srv: &wireServer{base: time.Now(), stamps: make([]legStamp, slots)},
	}
	m.a.Bind(m.clockA)
	m.b.Bind(m.clockB)
	for _, c := range []*wallclock.Clock{m.clockA, m.clockB} {
		m.loops.Add(1)
		go func(c *wallclock.Clock) {
			defer m.loops.Done()
			c.Run(wireHorizonMs)
		}(c)
	}
	place := topology.Placement{Pos: topology.Point{X: 0.5, Y: 0.5}}
	m.server = m.b.Join(m.srv, place)
	m.client = m.a.Join(m.srv, place) // the client takes no inbound traffic
	deadline := time.Now().Add(5 * time.Second)
	for !m.a.Alive(m.server) {
		if time.Now().After(deadline) {
			m.close()
			return nil, fmt.Errorf("wire-rpc: node B's join never reached node A")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return m, nil
}

// close stops both run loops, waits for them, and closes both
// transports (which waits for their reader and writer goroutines).
func (m *wireMesh) close() {
	m.clockA.Stop()
	m.clockB.Stop()
	m.loops.Wait()
	m.a.Close()
	m.b.Close()
}

// wireLoad is one closed-loop phase. Everything but the constructor
// and wait runs on node A's run loop, so it needs no locks.
type wireLoad struct {
	m *wireMesh
	k int
	// The phase ends after target RPCs, or at deadline when target is 0.
	target   int
	deadline time.Time
	large    bool
	keys     xorshift

	slots    []wireSlot
	issued   int
	inflight int
	ok       int
	failed   int // timeouts, errors and mismatched replies
	mismatch int // replies that answer another request
	firstErr error
	// rttUs, when non-nil, collects every round trip; legs the three
	// parts of each, when the server stamps. Only then is the clock
	// read per RPC.
	rttUs    []float64
	stamping bool
	legs     [3][]float64
	done     chan struct{}
}

type wireSlot struct {
	key   content.Key
	query uint64
	start time.Time
	cb    func(resp any, err error)
}

// run drives the phase to completion and returns its duration.
func (l *wireLoad) run() time.Duration {
	l.slots = make([]wireSlot, l.k)
	l.done = make(chan struct{})
	for i := range l.slots {
		i := i
		l.slots[i].cb = func(resp any, err error) { l.complete(i, resp, err) }
	}
	start := time.Now()
	l.m.clockA.Schedule(0, func() {
		for i := range l.slots {
			l.issue(i)
		}
	})
	<-l.done
	return time.Since(start)
}

func (l *wireLoad) more() bool {
	if l.target > 0 {
		return l.issued < l.target
	}
	return time.Now().Before(l.deadline)
}

func (l *wireLoad) issue(slot int) {
	s := &l.slots[slot]
	// The slot rides in the key's site, so the server can stamp it and
	// a reply delivered to the wrong caller cannot pass the check.
	s.key = content.Key{Site: content.SiteID(slot), Object: content.ObjectID(l.keys.next() % wireObjects)}
	l.issued++
	l.inflight++
	var req any = workload.FetchReq{Key: s.key}
	if l.large {
		s.query = uint64(l.issued)
		rec := &trace.Record{Query: s.query, Client: l.m.client, Key: s.key.Uint64(), Outcome: metrics.HitDirectory, Attempts: 1}
		rec.Hops = make([]trace.Hop, largeFrameHops)
		for h := range rec.Hops {
			rec.Hops[h] = trace.Hop{Kind: trace.HopRoute, Node: runtime.NodeID(h), At: int64(1000 * h)}
		}
		req = rec
	}
	if l.rttUs != nil || l.stamping {
		s.start = time.Now()
	}
	l.m.a.Request(l.m.client, l.m.server, req, wireTimeoutMs, s.cb)
}

func (l *wireLoad) complete(slot int, resp any, err error) {
	s := &l.slots[slot]
	l.inflight--
	switch r := resp.(type) {
	case workload.FetchResp:
		if err == nil && (r.Key != s.key || !r.Served) {
			l.mismatch++
			err = fmt.Errorf("reply for %v answers request %v", r.Key, s.key)
		}
	case *trace.Record:
		if err == nil && (r.Query != s.query || len(r.Hops) != largeFrameHops) {
			l.mismatch++
			err = fmt.Errorf("echo of query %d (%d hops) answers query %d", r.Query, len(r.Hops), s.query)
		}
	default:
		if err == nil {
			err = fmt.Errorf("unexpected reply %T", resp)
		}
	}
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
	} else {
		l.ok++
		if l.rttUs != nil {
			l.rttUs = append(l.rttUs, float64(time.Since(s.start).Nanoseconds())/1000)
		}
		if l.stamping {
			st := &l.m.srv.stamps[slot]
			issue := float64(s.start.Sub(l.m.srv.base))
			hs, he := float64(st.start.Load()), float64(st.end.Load())
			back := float64(time.Since(l.m.srv.base))
			l.legs[0] = append(l.legs[0], (hs-issue)/1000)
			l.legs[1] = append(l.legs[1], (he-hs)/1000)
			l.legs[2] = append(l.legs[2], (back-he)/1000)
		}
	}
	if l.more() {
		l.issue(slot)
	} else if l.inflight == 0 {
		close(l.done)
	}
}

// wireTotals sums what both transports report.
type wireTotals struct {
	wire   socknet.WireStats
	events uint64
}

func (m *wireMesh) totals() wireTotals {
	a, b := m.a.WireStats(), m.b.WireStats()
	return wireTotals{
		wire: socknet.WireStats{
			FramesSent:    a.FramesSent + b.FramesSent,
			BytesSent:     a.BytesSent + b.BytesSent,
			BatchesSent:   a.BatchesSent + b.BatchesSent,
			BrokenConns:   a.BrokenConns + b.BrokenConns,
			FramesDropped: a.FramesDropped + b.FramesDropped,
		},
		events: m.clockA.Processed() + m.clockB.Processed(),
	}
}

// wireRun is the state shared by the phases of one run.
type wireRun struct {
	m        *wireMesh
	keys     xorshift
	issued   int
	failed   int
	mismatch int
}

// phase runs one closed-loop phase and folds its failures into the run.
func (w *wireRun) phase(l *wireLoad) (time.Duration, error) {
	l.m, l.keys = w.m, w.keys
	d := l.run()
	w.keys = l.keys
	w.issued += l.issued
	w.failed += l.failed
	w.mismatch += l.mismatch
	if l.failed > 0 {
		return d, fmt.Errorf("wire-rpc: %d of %d RPCs failed, first: %v", l.failed, l.issued, l.firstErr)
	}
	return d, nil
}

// setUpWire forms the mesh plan.setups times and keeps the last; one
// repetition of set-up is forming a mesh, joining both nodes and
// warming it up.
func setUpWire(seed uint64, plan wirePlan) (w *wireRun, setup setupCost, err error) {
	user, sys := cpuTimes()
	setup.readyCPU = user + sys
	for i := 0; i < plan.setups; i++ {
		if w != nil {
			w.m.close()
		}
		before := snapshot()
		m, err := newWireMesh(seed, plan.throughputK)
		if err != nil {
			return nil, setup, err
		}
		w = &wireRun{m: m, keys: xorshift(seed*0x9e3779b97f4a7c15 | 1)}
		if _, err := w.phase(&wireLoad{k: plan.throughputK, target: plan.warmupRPCs}); err != nil {
			m.close()
			return nil, setup, err
		}
		setup.units = append(setup.units, snapshot().since(before))
	}
	return w, setup, nil
}

// runWireUntraced measures the end-to-end metrics of wire-rpc.
func runWireUntraced(seed uint64, plan wirePlan) (*runResult, error) {
	out := newRunResult(wireRPC, seed, false)
	w, setup, err := setUpWire(seed, plan)
	if err != nil {
		return nil, err
	}
	defer w.m.close()

	var units []unit
	var speed speedometer
	speed.read()
	for i := 0; i < plan.windows; i++ {
		sent := w.m.totals().wire.BytesSent
		before := snapshot()
		if _, err := w.phase(&wireLoad{k: plan.throughputK, target: plan.windowRPCs}); err != nil {
			return nil, err
		}
		units = append(units, unit{
			cost:      snapshot().since(before),
			ops:       float64(plan.windowRPCs),
			wireBytes: float64(w.m.totals().wire.BytesSent - sent),
		})
		speed.read()
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	out.Attempted = uint64(w.issued)
	out.Failed = uint64(w.failed)
	out.Checks = wireChecks{Failed: w.failed, Mismatched: w.mismatch}
	out.setSetup(setup)
	out.setFromUnits(units, &speed)
	out.set("peak_rss_mb", rss)
	return out, nil
}

// wireChecks are wire-rpc's output checks: every RPC issued got a
// reply, and it was the reply to its own request.
type wireChecks struct {
	Failed     int `json:"failed"`
	Mismatched int `json:"mismatched"`
}

// runWireTraced reports wire-rpc's per-layer metrics: latency at low
// load, what one throughput window put on the wire, large frames, the
// three legs of an RPC, and the codec rungs over this run's messages.
func runWireTraced(seed uint64, plan wirePlan) (*runResult, error) {
	out := newRunResult(wireRPC, seed, true)
	plan.setups = 1
	w, _, err := setUpWire(seed, plan)
	if err != nil {
		return nil, err
	}
	defer w.m.close()

	// Latency: every round trip at latencyK in flight.
	lat := &wireLoad{k: plan.latencyK, deadline: time.Now().Add(seconds(plan.latencySeconds)), rttUs: []float64{}}
	before := snapshot()
	if _, err := w.phase(lat); err != nil {
		return nil, err
	}
	cost := snapshot().since(before)
	// p99 per fifth of the phase, then their median: one stall moves
	// one fifth, not the metric.
	var p99s []float64
	for i := 0; i < 5; i++ {
		part := append([]float64(nil), lat.rttUs[i*len(lat.rttUs)/5:(i+1)*len(lat.rttUs)/5]...)
		if len(part) < 100 {
			return nil, fmt.Errorf("wire-rpc: %d round trips in a latency sub-window, too few for a p99", len(part))
		}
		sort.Float64s(part)
		p99s = append(p99s, quantile(part, 0.99))
	}
	sort.Float64s(lat.rttUs)
	out.note("latency phase: %d round trips at %d in flight", len(lat.rttUs), plan.latencyK)
	out.set("rtt_p50_us", quantile(lat.rttUs, 0.50))
	out.set("rtt_p99_us", median(p99s), p99s...)
	out.set("socknet.rtt_p999_us", quantile(lat.rttUs, 0.999))
	out.set("socknet.lowload_cpu_us_per_op", 1e6*(cost.userS+cost.sysS)/float64(lat.ok))

	// Throughput: what one window puts on the wire.
	t0 := w.m.totals()
	d, err := w.phase(&wireLoad{k: plan.throughputK, target: plan.windowRPCs})
	if err != nil {
		return nil, err
	}
	t1 := w.m.totals()
	frames := float64(t1.wire.FramesSent - t0.wire.FramesSent)
	wireBytes := float64(t1.wire.BytesSent - t0.wire.BytesSent)
	out.set("wall_s", d.Seconds())
	out.set("socknet.frames_per_batch", frames/float64(t1.wire.BatchesSent-t0.wire.BatchesSent))
	out.set("socknet.bytes_per_frame", wireBytes/frames)
	out.set("wallclock.events_per_s", float64(t1.events-t0.events)/d.Seconds())

	// Large frames.
	t0 = t1
	d, err = w.phase(&wireLoad{k: plan.largeK, deadline: time.Now().Add(seconds(plan.largeSeconds)), large: true})
	if err != nil {
		return nil, err
	}
	t1 = w.m.totals()
	out.set("socknet.large_mb_per_s", float64(t1.wire.BytesSent-t0.wire.BytesSent)/1e6/d.Seconds())

	// Legs: the server stamps handler start and end per slot.
	w.m.srv.stamping.Store(true)
	legs := &wireLoad{k: plan.latencyK, deadline: time.Now().Add(seconds(plan.legSeconds)), stamping: true}
	if _, err := w.phase(legs); err != nil {
		return nil, err
	}
	w.m.srv.stamping.Store(false)
	for i, name := range []string{"socknet.req_leg_us_p50", "socknet.handler_us_p50", "socknet.resp_leg_us_p50"} {
		if len(legs.legs[i]) == 0 {
			return nil, fmt.Errorf("wire-rpc: no stamped round trip")
		}
		out.set(name, median(legs.legs[i]))
	}

	total := w.m.totals()
	out.set("socknet.broken_conns", float64(total.wire.BrokenConns))
	out.set("socknet.frames_dropped", float64(total.wire.FramesDropped))
	out.set("failed_frac", float64(w.failed)/float64(w.issued))
	out.Attempted = uint64(w.issued)
	out.Failed = uint64(w.failed)
	out.Checks = wireChecks{Failed: w.failed, Mismatched: w.mismatch}

	// The messages this workload puts through the Transport seam.
	key := content.Key{Site: 7, Object: 11}
	rec := &trace.Record{Query: 1, Client: w.m.client, Key: key.Uint64(), Outcome: metrics.HitDirectory, Attempts: 1,
		Hops: make([]trace.Hop, largeFrameHops)}
	corpus := map[string][]any{
		"workload.FetchReq":  {workload.FetchReq{Key: key}},
		"workload.FetchResp": {workload.FetchResp{Key: key, Served: true}},
		"*trace.Record":      {rec},
	}
	if err := codecLadder(out, corpus); err != nil {
		return nil, err
	}
	return out, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
