// Package obs is the live observability endpoint for wall-clock runs:
// a metrics.Sink that taps the run's event pipeline (attach it via
// harness.Config.Obs) and serves the current aggregates plus the most
// recent query traces over HTTP while the run is still executing.
//
// Two routes:
//
//	/metrics  plain-text name/value lines (Prometheus exposition
//	          style): query totals, hit ratio, mean lookup latency,
//	          every protocol counter, and the trace tally.
//	/traces   the most recent trace records as JSON (?n= caps the
//	          count; default all retained).
//
// The server is caller-built: NewServer, Start to bind, attach to a
// run. The harness stops an attached server when the run returns, so
// the endpoint's lifetime matches the run it observes (a socket
// follower that exits early would otherwise leave the port serving
// stale aggregates); Stop is idempotent, so the owning process may
// also stop it explicitly. Observe is safe to call concurrently with
// HTTP reads; on the sim backend it works too (the endpoint just sees
// simulated time race by).
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"flowercdn/internal/metrics"
	"flowercdn/internal/trace"
)

// DefaultKeepTraces is the trace ring capacity: a server retains the
// last DefaultKeepTraces records.
const DefaultKeepTraces = 256

// Server accumulates live run state and serves it over HTTP.
type Server struct {
	mu         sync.Mutex
	queries    uint64
	hits       uint64
	unresolved uint64
	lookupSum  int64
	counters   map[string]float64

	// traces is a ring of the most recent records; next is the write
	// cursor, total the lifetime count.
	traces []*trace.Record
	next   int
	total  uint64

	// srvMu guards the listener/server pair: Start, Stop and Addr can
	// race when the harness stops the server as the run unwinds while
	// the owning process is also shutting it down.
	srvMu sync.Mutex
	ln    net.Listener
	srv   *http.Server
}

// NewServer builds a server retaining the last DefaultKeepTraces
// traces.
func NewServer() *Server {
	return &Server{
		counters: make(map[string]float64),
		traces:   make([]*trace.Record, 0, DefaultKeepTraces),
	}
}

// Observe implements metrics.Sink.
func (s *Server) Observe(ev metrics.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Kind {
	case metrics.KindQuery:
		s.queries++
		if ev.Outcome.IsHit() {
			s.hits++
		}
		if ev.Outcome == metrics.Unresolved {
			s.unresolved++
		} else {
			s.lookupSum += ev.LookupLatency
		}
	case metrics.KindCounter:
		s.counters[ev.Counter] += ev.Delta
	case metrics.KindTrace:
		rec, ok := ev.Trace.(*trace.Record)
		if !ok {
			return
		}
		s.total++
		if len(s.traces) < cap(s.traces) {
			s.traces = append(s.traces, rec)
			return
		}
		s.traces[s.next] = rec
		s.next = (s.next + 1) % len(s.traces)
	}
}

// AddTrace records one trace directly — the entry point for records
// shipped home over a multi-process bus, which bypass the local
// metrics pipeline.
func (s *Server) AddTrace(rec *trace.Record) {
	if rec == nil {
		return
	}
	s.Observe(metrics.TraceEvent(0, rec))
}

// Start binds addr (e.g. "127.0.0.1:0") and serves until Stop. It
// returns the bound address, so callers may pass port 0.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/traces", s.handleTraces)
	s.srvMu.Lock()
	s.ln = ln
	s.srv = &http.Server{Handler: mux}
	srv := s.srv
	s.srvMu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // Serve returns on Stop
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	s.srvMu.Lock()
	defer s.srvMu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// stopGrace bounds how long Stop waits for in-flight scrapes.
const stopGrace = 2 * time.Second

// Stop shuts the endpoint down gracefully: the listener closes at
// once, in-flight /metrics and /traces responses get stopGrace to
// finish, stragglers are cut off. Stop is idempotent and safe to call
// concurrently — the harness stops an attached server when its run
// returns, and the owning process may stop it again on its own way
// out.
func (s *Server) Stop() error {
	s.srvMu.Lock()
	srv := s.srv
	s.srv = nil
	s.srvMu.Unlock()
	if srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), stopGrace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return srv.Close()
	}
	return nil
}

// snapshotTraces returns the retained records, oldest first.
func (s *Server) snapshotTraces() []*trace.Record {
	out := make([]*trace.Record, 0, len(s.traces))
	if len(s.traces) == cap(s.traces) {
		out = append(out, s.traces[s.next:]...)
		out = append(out, s.traces[:s.next]...)
		return out
	}
	return append(out, s.traces...)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	queries, hits, unresolved := s.queries, s.hits, s.unresolved
	lookupSum, total := s.lookupSum, s.total
	names := make([]string, 0, len(s.counters))
	for k := range s.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	vals := make([]float64, len(names))
	for i, k := range names {
		vals[i] = s.counters[k]
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "queries_total %d\n", queries)
	fmt.Fprintf(w, "hits_total %d\n", hits)
	fmt.Fprintf(w, "unresolved_total %d\n", unresolved)
	hitRatio := 0.0
	if queries > 0 {
		hitRatio = float64(hits) / float64(queries)
	}
	fmt.Fprintf(w, "hit_ratio %g\n", hitRatio)
	meanLookup := 0.0
	if served := queries - unresolved; served > 0 {
		meanLookup = float64(lookupSum) / float64(served)
	}
	fmt.Fprintf(w, "mean_lookup_ms %g\n", meanLookup)
	fmt.Fprintf(w, "traces_total %d\n", total)
	for i, k := range names {
		fmt.Fprintf(w, "counter{name=%q} %g\n", k, vals[i])
	}
}

// traceJSON is the wire form of one record on /traces.
type traceJSON struct {
	Query    uint64    `json:"query"`
	Client   int64     `json:"client"`
	Loc      int       `json:"loc"`
	Key      uint64    `json:"key"`
	Outcome  string    `json:"outcome"`
	Attempts int       `json:"attempts"`
	Hops     []hopJSON `json:"hops"`
}

type hopJSON struct {
	Kind          string `json:"kind"`
	Node          int64  `json:"node"`
	Loc           int    `json:"loc"`
	At            int64  `json:"at_ms"`
	FalsePositive bool   `json:"false_positive,omitempty"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	recs := s.snapshotTraces()
	s.mu.Unlock()
	if v := r.URL.Query().Get("n"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 && n < len(recs) {
			recs = recs[len(recs)-n:]
		}
	}
	out := make([]traceJSON, len(recs))
	for i, rec := range recs {
		tj := traceJSON{
			Query:    rec.Query,
			Client:   int64(rec.Client),
			Loc:      int(rec.Loc),
			Key:      rec.Key,
			Outcome:  rec.Outcome.String(),
			Attempts: rec.Attempts,
			Hops:     make([]hopJSON, len(rec.Hops)),
		}
		for j, h := range rec.Hops {
			tj.Hops[j] = hopJSON{
				Kind: h.Kind.String(), Node: int64(h.Node),
				Loc: int(h.Loc), At: h.At, FalsePositive: h.FalsePositive,
			}
		}
		out[i] = tj
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out) //nolint:errcheck
}
