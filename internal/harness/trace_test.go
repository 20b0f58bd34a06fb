package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"testing"

	"flowercdn/internal/protocols"
	"flowercdn/internal/trace"
)

// tracedTinyConfig is the shared cell for the trace tests: tinyConfig
// with tracing on.
func tracedTinyConfig() Config {
	cfg := tinyConfig()
	cfg.Trace = &TraceConfig{}
	return cfg
}

// traceCSV renders a run's records through the canonical CSV writer —
// the byte stream the determinism assertions compare.
func traceCSV(t *testing.T, recs []*trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceDeterminismSim: the same sim cell run twice produces
// byte-identical trace streams — tracing inherits the simulator's
// determinism instead of weakening it.
func TestTraceDeterminismSim(t *testing.T) {
	cfg := tracedTinyConfig()
	a, b := runCell(t, cfg), rerun(t, cfg)
	if len(a.Traces) == 0 {
		t.Fatal("traced run produced no records")
	}
	csvA, csvB := traceCSV(t, a.Traces), traceCSV(t, b.Traces)
	if !bytes.Equal(csvA, csvB) {
		t.Fatalf("same cell, different trace streams (%d vs %d bytes)", len(csvA), len(csvB))
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprints diverged: %x vs %x", a.Fingerprint, b.Fingerprint)
	}
}

// TestTraceDigestsSim pins each traced protocol's trace stream under
// tracedTinyConfig: the FNV-64a of its canonical CSV. Run fingerprints
// do not cover traces, so this is what holds a change to where hops and
// localities are stamped to byte-identical output.
func TestTraceDigestsSim(t *testing.T) {
	for _, c := range []struct {
		protocol Protocol
		digest   uint64
	}{
		{ProtocolFlower, 0x52985910e6b27b59},
		{Protocol("petalup"), 0x52985910e6b27b59},
		{ProtocolSquirrel, 0x07e11fb8779e72f4},
		{Protocol("chord-global"), 0x75f8622f01e46e3e},
		{Protocol("koorde-global"), 0xcdd511c57aefbaba},
	} {
		t.Run(string(c.protocol), func(t *testing.T) {
			cfg := tracedTinyConfig()
			cfg.Protocol = c.protocol
			res := runCell(t, cfg)
			if len(res.Traces) == 0 {
				t.Fatal("traced run produced no records")
			}
			h := fnv.New64a()
			h.Write(traceCSV(t, res.Traces))
			if got := h.Sum64(); got != c.digest {
				t.Fatalf("trace digest %#016x, pinned %#016x", got, c.digest)
			}
		})
	}
}

// TestTraceDoesNotChangeFingerprint pins the zero-overhead contract at
// run level: enabling tracing must not move a single simulated event —
// same fingerprint, same aggregates — because trace records ride their
// own metrics kind and no message's modeled size grows. A traced sim
// cell is not the untraced one, so these are two runs.
func TestTraceDoesNotChangeFingerprint(t *testing.T) {
	plain, traced := runCell(t, tinyConfig()), runCell(t, tracedTinyConfig())
	if plain.Fingerprint != traced.Fingerprint {
		t.Fatalf("tracing changed the fingerprint: %x vs %x", plain.Fingerprint, traced.Fingerprint)
	}
	if plain.Queries != traced.Queries || plain.Hits != traced.Hits {
		t.Fatalf("tracing changed aggregates: %d/%d vs %d/%d queries/hits",
			plain.Queries, plain.Hits, traced.Queries, traced.Hits)
	}
	if len(plain.Traces) != 0 {
		t.Fatalf("untraced run collected %d records", len(plain.Traces))
	}
}

// TestTraceOnRecordCallback: the streaming hook sees every record the
// collector keeps.
func TestTraceOnRecordCallback(t *testing.T) {
	streamed := 0
	cfg := tinyConfig()
	cfg.Trace = &TraceConfig{OnRecord: func(rec *trace.Record) {
		if rec == nil || len(rec.Hops) == 0 {
			t.Error("callback received an empty record")
		}
		streamed++
	}}
	res := runCell(t, cfg)
	if streamed != len(res.Traces) {
		t.Fatalf("callback saw %d records, collector kept %d", streamed, len(res.Traces))
	}
}

// checkWellFormed asserts the per-record trace invariants every
// backend and protocol must uphold: hops exist, start with the issuing
// client, advance in nondecreasing time, and terminate at the serving
// node (HopServe).
func checkWellFormed(t *testing.T, recs []*trace.Record) {
	t.Helper()
	for _, rec := range recs {
		if len(rec.Hops) == 0 {
			t.Fatalf("query %d: empty path", rec.Query)
		}
		first, last := rec.Hops[0], rec.Hops[len(rec.Hops)-1]
		if first.Kind != trace.HopIssue || first.Node != rec.Client {
			t.Fatalf("query %d: path starts %v@%d, want issue@%d", rec.Query, first.Kind, first.Node, rec.Client)
		}
		if last.Kind != trace.HopServe {
			t.Fatalf("query %d: terminal hop is %v, not serve", rec.Query, last.Kind)
		}
		for i := 1; i < len(rec.Hops); i++ {
			if rec.Hops[i].At < rec.Hops[i-1].At {
				t.Fatalf("query %d: hop %d time %d < %d", rec.Query, i, rec.Hops[i].At, rec.Hops[i-1].At)
			}
		}
	}
}

// TestTraceConformanceSim runs every protocol on the sim
// backend with tracing and checks the uniform contract: well-formed
// records for everything that answers queries, and — the acceptance
// bar — the trace-derived mean hop count equal to the counter-derived
// Result.MeanHops, exactly, because both tallies are incremented at
// the same delivery sites.
func TestTraceConformanceSim(t *testing.T) {
	for _, name := range protocols.Names() {
		t.Run(name, func(t *testing.T) {
			cfg := demoConfig(50, 10_000)
			cfg.Protocol = Protocol(name)
			cfg.Trace = &TraceConfig{}
			res := runCell(t, cfg)
			checkWellFormed(t, res.Traces)
			d, _ := protocols.Lookup(name)
			if d.Info.Compare && len(res.Traces) == 0 {
				t.Fatalf("comparable protocol emitted no traces over %d queries", res.Queries)
			}
			if got, want := res.TraceStats.MeanHops(), res.MeanHops; got != want {
				t.Fatalf("trace-derived mean hops %v != counter-derived %v", got, want)
			}
		})
	}
}

// TestTraceConformanceRealtime repeats the conformance check in real
// time on a socket group of one (1.5 s per protocol, side by side; the
// runs are traced, as runCell traces every socket cell): the same
// invariants hold when hops are stamped from a real clock on live
// goroutines.
func TestTraceConformanceRealtime(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test skipped in -short mode")
	}
	eachProtocolAtOnce(t, func(t *testing.T, name string) {
		res := runCell(t, oneGroupConfig(Protocol(name), 1500))
		checkWellFormed(t, res.Traces)
		if got, want := res.TraceStats.MeanHops(), res.MeanHops; got != want {
			t.Fatalf("trace-derived mean hops %v != counter-derived %v", got, want)
		}
	})
}

// TestGoldenTraces pins the routing structure the traces must reveal
// at quick scale: flower resolves queries inside the client's locality
// with (nearly) no overlay routing, while the global baselines pay the
// ring — chord-global around log2(P)/2 hops per routed query,
// koorde-global meaningfully fewer — and the gap is visible in the
// per-hop breakdown, not just the aggregate counters.
func TestGoldenTraces(t *testing.T) {
	run := func(p Protocol) (*Result, trace.Breakdown) {
		cfg := tracedTinyConfig()
		cfg.Protocol = p
		res := runCell(t, cfg)
		if len(res.Traces) == 0 {
			t.Fatalf("%s: no traces", p)
		}
		return res, trace.Analyze(res.Traces, res.HopLatency)
	}

	_, flower := run(ProtocolFlower)
	chordRes, chord := run(Protocol("chord-global"))
	koordeRes, koorde := run(Protocol("koorde-global"))

	// Flower's directory lives in the client's locality: queries route
	// through (almost) no overlay hops and mostly resolve locally.
	if flower.MeanRouteHops > 0.5 {
		t.Fatalf("flower mean route hops %.2f, want ~0", flower.MeanRouteHops)
	}
	if flower.WithinLocality < 0.10 {
		t.Fatalf("flower within-locality share %.3f, want the dominant hit mode", flower.WithinLocality)
	}
	// The global baselines pay the overlay on every query: chord about
	// log2(P)/2, koorde fewer (the degree-2 de Bruijn bound).
	if chord.MeanRouteHops < 3.0 || chord.MeanRouteHops > 6.5 {
		t.Fatalf("chord-global mean route hops %.2f, want ~log2(P)/2", chord.MeanRouteHops)
	}
	if koorde.MeanRouteHops < 1.5 || koorde.MeanRouteHops > 4.5 {
		t.Fatalf("koorde-global mean route hops %.2f", koorde.MeanRouteHops)
	}
	if koorde.MeanRouteHops >= chord.MeanRouteHops {
		t.Fatalf("koorde (%.2f hops) should beat chord (%.2f hops)",
			koorde.MeanRouteHops, chord.MeanRouteHops)
	}
	// The breakdown's hop tally is the counters' tally, not a parallel
	// reality: trace-derived means match Result.MeanHops exactly.
	for _, c := range []struct {
		res *Result
		bd  trace.Breakdown
	}{{chordRes, chord}, {koordeRes, koorde}} {
		if got, want := c.res.TraceStats.MeanHops(), c.res.MeanHops; got != want {
			t.Fatalf("trace stats mean hops %v != counter mean hops %v", got, want)
		}
	}
	// And the report renders the split (link vs queue) when given the
	// topology latency function.
	if !chord.Split {
		t.Fatal("breakdown did not compute the link/queue split despite a latency function")
	}
	if !strings.Contains(chord.Format(), "link-ms") {
		t.Fatal("formatted breakdown is missing the latency split columns")
	}
}

// TestTraceLiveEndpoint exercises the observability server end to end
// on a one-process socket run: /metrics serves the live aggregate lines
// and /traces the collected records as JSON. runCell serves every
// socket cell on an endpoint and probes it from the window hook —
// mid-run — because the harness stops an attached server when the run
// returns; a post-run probe would hit a closed listener by design. The
// test asserts exactly that too: the endpoint must be gone once the run
// is over.
func TestTraceLiveEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test skipped in -short mode")
	}
	c := cellOf(t, oneGroupConfig(ProtocolFlower, 1500))
	if c.res.Queries == 0 {
		t.Fatal("no queries on the live run")
	}
	if c.liveMetrics == "" {
		t.Fatal("no successful /metrics probe during the run")
	}
	for _, want := range []string{"queries_total", "hit_ratio", "traces_total"} {
		if !strings.Contains(c.liveMetrics, want) {
			t.Fatalf("/metrics is missing %q:\n%s", want, c.liveMetrics)
		}
	}

	var traces []struct {
		Query uint64 `json:"query"`
		Hops  []struct {
			Kind string `json:"kind"`
		} `json:"hops"`
	}
	if err := json.Unmarshal([]byte(c.liveTraces), &traces); err != nil {
		t.Fatalf("/traces is not JSON: %v", err)
	}
	if len(traces) == 0 {
		t.Fatal("/traces served no records mid-run")
	}
	if last := traces[len(traces)-1]; len(last.Hops) == 0 || last.Hops[len(last.Hops)-1].Kind != "serve" {
		t.Fatalf("served trace is malformed: %+v", last)
	}

	// The run is over; the harness must have shut the endpoint down
	// with it (the follower-shutdown contract).
	if c.servedAfter {
		t.Fatal("obs endpoint still serving after the run returned")
	}
}

// tryGet is an HTTP GET without test plumbing, callable off the test
// goroutine.
func tryGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
