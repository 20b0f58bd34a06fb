package main

import "encoding/json"

// This file is the single definition of what the benchmark measures:
// the workloads, the end-to-end metrics with their bounds and the
// per-layer metrics. BENCHMARK.json at the repository root is this
// table rendered (`-spec` prints it); bench_test.go fails when the two
// drift apart.

// Workload names. Later issues refer to them.
const (
	petalSteady = "petal-steady"
	petalBusy   = "petal-busy"
	ringSteady  = "ring-steady"
	bigcellJoin = "bigcell-join"
	wireRPC     = "wire-rpc"
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// runSeconds is how long one driver run measures; the sim cells are
// sized so six to ten timed reps fit.
const runSeconds = 10

var workloads = []workloadSpec{
	{petalSteady, "flower on sim, P=1000, 4 h, 20 sites/3 active/200 objects, unbounded stores: the paper's Fig. 3 operating point; engine, simnet and D-ring upkeep dominate, the query path is under 10%"},
	{petalBusy, "flower on sim, P=400, 3 h, 6 sites all active, a query a minute, gossip every 10 min, LRU stores of 40: the query path, content.Store eviction, bloom and gossip dominate; chord is small"},
	{ringSteady, "squirrel on sim, P=250, 3 h, 20 sites/3 active: every peer is a Chord node joining and failing; no flower or gossip code runs, so it bypasses anything petal-specific"},
	{bigcellJoin, "flower on sim, P=20000, 1 h, 12 sites/2 active/150 objects: a join storm with a deep event queue, allocation- and GC-bound; guards the 4 KiB/node memory budget"},
	{wireRPC, "two socknet transports over loopback TCP, binary codec, closed-loop FetchReq/FetchResp at K=512 in flight: the only place serialization, batching and TCP are priced; no sim code runs"},
}

// End-to-end metrics: every workload reports every one, from untraced
// runs only. Bound is the share of the parent's median by which the
// metric may worsen before a change counts as a regression. The three
// time metrics are scaled to a reference machine (refkernel.go).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"alloc_kb_per_op", "KiB", "lower", 0.10},
	{"wire_bytes_per_op", "B", "lower", 0.15},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// spanLayers are the span names reported as <layer>.self_s, .calls and
// .share on every sim workload.
var spanLayers = []string{
	"sim.pop", "sim.push", "simnet.send", "simnet.deliver",
	"chord", "koorde", "gossip", "flower", "squirrel", "baseline",
	"workload", "churn", "harness",
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var out []metricSpec
	add := func(name, unit, better string) {
		out = append(out, metricSpec{Name: name, Unit: unit, Better: better})
	}
	// Spans of the traced sim rep.
	for _, l := range spanLayers {
		add(l+".self_s", "s", "lower")
		add(l+".calls", "count", "lower")
		add(l+".share", "ratio", "lower")
	}
	add("trace.overhead_ratio", "ratio", "lower")
	add("trace.span_cost_ns", "ns", "lower")
	add("trace.unattributed_share", "ratio", "lower")
	add("sim.queue_depth_p50", "count", "lower")
	add("sim.queue_depth_max", "count", "lower")
	// Exact counters of the untraced reference rep.
	add("sim.events", "count", "lower")
	add("sim.ns_per_event", "ns", "lower")
	add("sim.events_per_s", "1/s", "higher")
	add("simnet.messages_sent", "count", "lower")
	add("simnet.messages_dropped", "count", "lower")
	add("simnet.delivered_ratio", "ratio", "higher")
	add("simnet.requests_issued", "count", "lower")
	add("simnet.requests_timed_out", "count", "lower")
	add("chord.routed_queries", "count", "higher")
	add("chord.mean_hops", "count", "lower")
	add("flower.hit_ratio", "ratio", "higher")
	add("flower.gossip_hits", "count", "higher")
	add("flower.directory_hits", "count", "higher")
	add("churn.peers_spawned", "count", "lower")
	add("proc.cpu_user_s", "s", "lower")
	add("proc.cpu_sys_s", "s", "lower")
	add("proc.gc_cycles", "count", "lower")
	add("proc.gc_pause_ms", "ms", "lower")
	add("proc.heap_peak_mb", "MiB", "lower")
	// End-to-end quantities one family of workloads cannot report; the
	// contract wants every end-to-end metric from every workload.
	add("failed_frac", "ratio", "lower")
	add("live_bytes_per_node", "B", "lower")
	add("rtt_p50_us", "us", "lower")
	add("rtt_p99_us", "us", "lower")
	add("wall_s", "s", "lower")
	// Layer ladder, reported under ring-steady.
	add("sim.ladder_ns_per_event", "ns", "lower")
	add("sim.ladder_allocs_per_event", "count", "lower")
	add("sim.insitu_over_ladder", "ratio", "lower")
	add("simnet.ladder_ns_per_send", "ns", "lower")
	add("simnet.ladder_ns_per_request", "ns", "lower")
	add("chord.ladder_us_per_lookup", "us", "lower")
	add("chord.ladder_hops", "count", "lower")
	add("koorde.ladder_us_per_route", "us", "lower")
	add("koorde.ladder_hops", "count", "lower")
	// Layer ladder, reported under petal-busy.
	add("gossip.ladder_us_per_tick", "us", "lower")
	add("content.ladder_ns_per_add", "ns", "lower")
	add("content.ladder_ns_per_add_lru", "ns", "lower")
	add("content.ladder_ns_per_has", "ns", "lower")
	add("content.ladder_us_per_summary", "us", "lower")
	add("bloom.ladder_ns_per_add", "ns", "lower")
	add("bloom.ladder_ns_per_contains", "ns", "lower")
	add("metrics.ladder_ns_per_observe", "ns", "lower")
	// Codec ladder, reported under wire-rpc.
	for _, c := range []string{"binary", "gob"} {
		add("runtime."+c+"_ns_per_encode", "ns", "lower")
		add("runtime."+c+"_ns_per_decode", "ns", "lower")
		add("runtime."+c+"_bytes_per_msg", "B", "lower")
		add("runtime."+c+"_allocs_per_roundtrip", "count", "lower")
	}
	// The wire, wire-rpc only.
	add("socknet.frames_per_batch", "count", "higher")
	add("socknet.bytes_per_frame", "B", "lower")
	add("socknet.broken_conns", "count", "lower")
	add("socknet.frames_dropped", "count", "lower")
	add("socknet.req_leg_us_p50", "us", "lower")
	add("socknet.handler_us_p50", "us", "lower")
	add("socknet.resp_leg_us_p50", "us", "lower")
	add("socknet.rtt_p999_us", "us", "lower")
	add("socknet.lowload_cpu_us_per_op", "us", "lower")
	add("socknet.large_mb_per_s", "MB/s", "higher")
	add("wallclock.events_per_s", "1/s", "higher")
	return out
}

func spec() benchSpec {
	return benchSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// specJSON renders the table as BENCHMARK.json.
func specJSON() []byte {
	b, err := json.MarshalIndent(spec(), "", "  ")
	if err != nil {
		panic(err) // the table holds only strings and numbers
	}
	return append(b, '\n')
}
