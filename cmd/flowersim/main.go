// Command flowersim runs a single experiment with every Table 1
// parameter exposed as a flag and prints the run's metrics.
//
// Usage:
//
//	flowersim -protocol flower -p 3000 -hours 24
//	flowersim -protocol squirrel -p 500 -hours 6 -seed 7
//	flowersim -protocol origin-only -p 400   # the floor any CDN must beat
//	flowersim -cache-policy lru -cache-capacity 16   # capacity-bounded peer stores
//	flowersim -protocols                     # list the protocols
//	flowersim -print-params
//
// With -backend socket the identical protocol code runs on wall-clock
// timers instead of the deterministic simulator: the run takes -horizon
// of real time and prints each metric window live as it closes.
// Timescales are compressed (~3600×) so seconds exhibit the full
// protocol lifecycle. Without -peers it is one process, a group of one
// that opens no socket:
//
//	flowersim -backend socket -population 50 -horizon 5s
//
// With -peers the live run spans cooperating OS processes over TCP —
// one listener per process, the population partitioned across them.
// Direct mode — run each process yourself (any mix of terminals or
// machines sharing a loopback/LAN):
//
//	flowersim -backend socket -listen 127.0.0.1:7001 \
//	    -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 -population 50 -horizon 5s
//	flowersim -backend socket -listen 127.0.0.1:7002 -peers ... (same list)
//	flowersim -backend socket -listen 127.0.0.1:7003 -peers ... (same list)
//
// The group index defaults to the position of -listen in -peers; give
// -group to override (e.g. when listening on 0.0.0.0).
// Convenience mode — fork the whole group locally (demos, CI):
//
//	flowersim -backend socket -spawn-local 3 -population 50 -horizon 5s
//
// Every backend takes one path: declare fills the options, config builds
// the harness.Config, simulate executes it, report prints it. A flag says
// once which backends it applies to; the "ignored with -backend X"
// warnings and -spawn-local's child arguments are read off that.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"time"

	"flowercdn"
	"flowercdn/internal/cli"
	"flowercdn/internal/harness"
	"flowercdn/internal/metrics"
	"flowercdn/internal/obs"
	"flowercdn/internal/runtime"
	"flowercdn/internal/trace"
)

// The flag tags: which backends a flag applies to, and whether it
// belongs to one process — its slot in a socket group, or its profiles —
// so that -spawn-local does not hand its own value down.
const (
	onSim cli.Tag = 1 << iota
	onSocket
	perProcess

	anywhere = onSim | onSocket
)

// options is everything the command line sets.
type options struct {
	flags   *cli.Flags
	backend string
	on      cli.Tag // the selected backend's bit, set by parse
	// exp is the experiment as the sim backend runs it, every Table 1
	// knob. The socket backend takes its scale from the demo preset
	// (population, horizon) and from exp only the knobs tagged for it.
	exp        flowercdn.Config
	population int
	horizon    time.Duration
	// sock holds -listen and -group; socket() adds the peer list.
	sock       runtime.SocketConfig
	peers      string
	spawnLocal int

	traceCSV, obs          string
	cpuProfile, memProfile string
	listProtocols, series  bool
	printParams, printFP   bool
	stdout, stderr         io.Writer
}

// declare registers every flag on fs, bound to the options field it
// sets; a flag's default is whatever that field holds here, so the sim
// defaults are flowercdn.QuickConfig's and are not restated.
func declare(fs *flag.FlagSet) *options {
	o := &options{
		flags:      cli.NewFlags(fs),
		backend:    "sim",
		exp:        flowercdn.QuickConfig(),
		population: 50,
		horizon:    5 * time.Second,
		sock:       runtime.SocketConfig{Group: -1},
	}
	f := o.flags

	flowercdn.BindCell(f, &o.exp, anywhere, onSim) // the experiment itself: one cell's flags
	cli.Bind(f, anywhere, &o.backend, "backend", fmt.Sprintf("runtime backend, one of %v", runtime.Backends()))
	cli.Bind(f, anywhere, &o.listProtocols, "protocols", "list registered protocols and exit")
	cli.Bind(f, anywhere, &o.traceCSV, "trace-csv", "enable per-query tracing and write hop-by-hop records to this CSV file (socket backend: group 0 only)")
	cli.Bind(f, onSocket, &o.obs, "obs", "socket backend: serve live /metrics and /traces on this address during the run (implies tracing)")
	cli.Bind(f, onSim, &o.printFP, "print-fingerprint", "print only the run fingerprint (for cross-process determinism checks)")
	cli.Bind(f, anywhere|perProcess, &o.cpuProfile, "cpuprofile", "write a CPU profile of the run to this file")
	cli.Bind(f, anywhere|perProcess, &o.memProfile, "memprofile", "write an end-of-run heap profile to this file")
	cli.Bind(f, onSim, &o.exp.MeasureMem, "measure-mem", "sample the live heap after the run (forced GC) and print bytes/node")
	cli.Bind(f, onSim, &o.series, "series", "print the hourly hit-ratio series")
	cli.Bind(f, onSim, &o.printParams, "print-params", "print the Table 1 parameter sheet and exit")

	cli.Bind(f, onSocket, &o.population, "population", "socket backend: mean population size")
	cli.Bind(f, onSocket, &o.horizon, "horizon", "socket backend: wall-clock run length")
	cli.Bind(f, onSocket|perProcess, &o.sock.Listen, "listen", "socket backend: this process's TCP listen address")
	cli.Bind(f, onSocket|perProcess, &o.peers, "peers", "socket backend: comma-separated index-ordered group addresses (default: a group of one)")
	cli.Bind(f, onSocket|perProcess, &o.sock.Group, "group", "socket backend: this process's index in -peers (default: position of -listen)")
	cli.Bind(f, onSocket|perProcess, &o.spawnLocal, "spawn-local", "socket backend: fork N local processes into one population")
	return o
}

// parse declares the flag table on fs, parses args and puts every set
// flag that does not apply to the chosen backend back to its default,
// with one warning each. Resetting makes "ignored" true by construction:
// no later stage has to know which flags its backend honours.
func parse(fs *flag.FlagSet, args []string) (*options, []string, error) {
	o := declare(fs)
	if err := o.flags.Parse(args); err != nil {
		return nil, nil, err
	}
	// An unknown backend name takes the sim path, where the harness
	// rejects it with the list of built-in ones.
	why := "scale comes from -population/-horizon"
	o.on = onSocket
	if o.backend != "socket" {
		o.on, why = onSim, "it belongs to the socket backend"
	}
	var warnings []string
	o.flags.VisitSet(func(t cli.Tag) bool { return t&o.on == 0 }, func(fl *flag.Flag) {
		_ = fl.Value.Set(fl.DefValue) // a flag's own default always parses
		warnings = append(warnings, fmt.Sprintf("-%s is ignored with -backend %s (%s)", fl.Name, o.backend, why))
	})
	return o, warnings, nil
}

func main() { cli.Main(run) }

// run is the command: it parses args, warns on stderr of every flag the
// chosen backend ignores, and lists, prints or runs what they ask for.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("flowersim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o, warnings, err := parse(fs, args)
	if err != nil {
		return err
	}
	o.stdout, o.stderr = stdout, stderr
	for _, w := range warnings {
		cli.Warnf(stderr, "%s", w)
	}
	if o.listProtocols {
		for _, p := range flowercdn.Protocols() {
			fmt.Fprintf(stdout, "%-14s %s\n", p, flowercdn.ProtocolSummary(p))
		}
		return nil
	}
	if o.spawnLocal > 0 {
		return o.spawnGroup()
	}
	hc, err := o.config()
	if err != nil {
		return err
	}
	if !o.printFP { // every report opens with how to replay its cell
		fmt.Fprintln(stdout, strings.Join(append([]string{"cell:"}, o.exp.Cell()...), " "))
	}
	if o.printParams {
		fmt.Fprint(stdout, harness.FormatTable1(hc))
		return nil
	}
	res, elapsed, err := o.simulate(hc)
	if err != nil {
		return err
	}
	return o.report(hc, res, elapsed)
}

// config builds the run's harness.Config. The sim backend lowers the
// whole experiment through the façade. The socket backend starts from
// the harness's compressed demo preset — scale comes from
// -population/-horizon — and takes over the knobs that are not scale,
// here and nowhere else.
func (o *options) config() (harness.Config, error) {
	c := o.exp
	c.Trace = o.traceCSV != "" || o.obs != ""
	if o.on == onSim {
		hc, err := c.Lower()
		hc.Backend = o.backend
		return hc, err
	}
	sock, err := o.socket()
	if err != nil {
		return harness.Config{}, err
	}
	hc := harness.SocketDemoConfig(o.population, o.horizon.Milliseconds(), sock)
	hc.Protocol = harness.Protocol(c.Protocol)
	hc.Seed = c.Seed
	hc.MessageLossRate = c.MessageLossRate
	if c.CachePolicy != "none" { // BindCell spells the unbounded store one way
		hc.Options["cache-policy"] = c.CachePolicy
		hc.Options["cache-capacity"] = c.CacheCapacity
	}
	if c.Trace {
		// On a socket group tracing is on in every process (followers ship
		// their records home over the bus); the CSV and the observability
		// endpoint belong to group 0, where the records accumulate.
		hc.Trace = &harness.TraceConfig{}
	}
	return hc, nil
}

// leads reports whether this process is where a run's shared artifacts
// live: always, except for the followers of a socket group.
func leads(hc harness.Config) bool { return hc.Socket == nil || hc.Socket.Group == 0 }

// simulate executes hc between the profiles, serving the observability
// endpoint and printing live windows on the socket backend.
func (o *options) simulate(hc harness.Config) (*harness.Result, time.Duration, error) {
	if o.obs != "" && leads(hc) {
		// The harness stops the server when the run returns; the deferred
		// Stop (idempotent) covers a run that fails before it starts.
		srv := obs.NewServer()
		bound, err := srv.Start(o.obs)
		if err != nil {
			return nil, 0, err
		}
		defer srv.Stop()
		hc.Obs = srv
		fmt.Fprintf(o.stdout, "observability: serving /metrics and /traces on http://%s\n", bound)
	}
	if s := hc.Socket; s != nil {
		hc.OnWindow = func(p metrics.SeriesPoint) {
			fmt.Fprintf(o.stdout, "[%5.1fs] hit-ratio %.3f  queries %4d  lookup %5.0fms  transfer %4.0fms\n",
				float64(p.Start+hc.SeriesWindow)/1000, p.HitRatio, p.Queries, p.MeanLookupMs, p.MeanTransferMs)
		}
		if s.Groups() > 1 {
			fmt.Fprintf(o.stdout, "socket group %d/%d on %s: ", s.Group, len(s.Peers), s.Listen)
		}
		fmt.Fprintf(o.stdout, "live %s run: population %d, horizon %v, %d ms windows\n",
			hc.Protocol, hc.Population, o.horizon, hc.SeriesWindow)
	}
	var res *harness.Result
	var elapsed time.Duration
	err := cli.Profiled(o.cpuProfile, o.memProfile, func() (err error) {
		start := time.Now()
		res, err = harness.Run(hc)
		elapsed = time.Since(start)
		return err
	})
	return res, elapsed, err
}

// report prints the finished run. With -print-fingerprint that is
// exactly one line, stable across equivalent sim runs: the contract of
// make fingerprint-check (the flag is sim-only: a wall-clock run's value
// is not reproducible).
func (o *options) report(hc harness.Config, res *harness.Result, elapsed time.Duration) error {
	if o.printFP {
		fmt.Fprintf(o.stdout, "%016x\n", res.Fingerprint)
		return nil
	}
	fmt.Fprintf(o.stdout, "completed in %v\n", elapsed.Round(time.Millisecond))
	if w := res.Wire; w != nil {
		perBatch := float64(w.FramesSent) / float64(max(w.BatchesSent, 1))
		fmt.Fprintf(o.stdout, "wire: codec=%s, %d frames in %d batches out (%.1f frames/batch), %d bytes out, %d bytes in\n",
			w.Codec, w.FramesSent, w.BatchesSent, perBatch, w.BytesSent, w.BytesRead)
	}
	if o.traceCSV != "" && leads(hc) {
		err := cli.WriteTo(o.traceCSV, o.stdout, func(w io.Writer) error { return trace.WriteCSV(w, res.Traces) })
		if err != nil {
			return err
		}
		fmt.Fprintf(o.stdout, "traces: %d records written to %s\n", len(res.Traces), o.traceCSV)
	}
	fmt.Fprint(o.stdout, harness.FormatSummary(res))
	fmt.Fprintf(o.stdout, "lookup: %.0f%% within 150 ms, %.0f%% beyond 1200 ms\n",
		100*res.LookupWithin150ms(), 100*res.LookupBeyond1200ms())
	fmt.Fprintf(o.stdout, "transfer: %.0f%% within 100 ms\n", 100*res.TransferWithin100ms())
	if m := res.MemStats; m != nil {
		fmt.Fprintf(o.stdout, "memory: %.0f B/node live heap (%.1f MiB total; %.1f MiB allocated over the run, %d mallocs)\n",
			m.BytesPerNode, float64(m.HeapAllocBytes)/(1<<20), float64(m.TotalAllocBytes)/(1<<20), m.Mallocs)
	}
	if o.series {
		fmt.Fprintln(o.stdout, "hour  hit-ratio  queries")
		for i, pt := range res.Series {
			fmt.Fprintf(o.stdout, "%4d  %9.3f  %7d\n", i+1, pt.HitRatio, pt.Queries)
		}
	}
	if s := hc.Socket; s != nil {
		// The socket smoke contract: this process issued queries and they
		// were answered (served from a peer or the origin — not abandoned).
		// A process that cannot say so exits non-zero.
		answered := res.Hits + res.Misses
		if answered == 0 {
			return fmt.Errorf("no live query answered in group %d (%d issued)", s.Group, res.Queries)
		}
		fmt.Fprintf(o.stdout, "group %d: clean shutdown, %d/%d queries answered\n", s.Group, answered, res.Queries)
	}
	return nil
}

// socket resolves this process's slot in its socket group from -listen,
// -peers and -group. Without -peers the group is this process alone
// and opens no socket; -listen (default 127.0.0.1:0) only names it.
func (o *options) socket() (runtime.SocketConfig, error) {
	sock := o.sock
	sock.Peers = strings.FieldsFunc(o.peers, func(r rune) bool { return r == ',' || r == ' ' })
	if len(sock.Peers) == 0 {
		if sock.Listen == "" {
			sock.Listen = "127.0.0.1:0"
		}
		sock.Peers = []string{sock.Listen}
	}
	if sock.Group < 0 { // default: the position of -listen in the peer list
		if sock.Group = slices.Index(sock.Peers, sock.Listen); sock.Group < 0 {
			return sock, fmt.Errorf("-listen %s not in -peers %s; give -group explicitly", sock.Listen, o.peers)
		}
	}
	return sock, nil
}

// childArgs is what every -spawn-local child is told besides its own
// slot: each flag this process was given that applies to the socket
// backend group-wide (-backend itself among them). Tracing flags reach
// every child; only group 0 writes the CSV or binds the endpoint.
func (o *options) childArgs() []string {
	return o.flags.Args(func(t cli.Tag) bool { return t&onSocket != 0 && t&perProcess == 0 })
}

// spawnGroup forks this binary -spawn-local times into one localhost
// population and relays the children's output, prefixed by group. It
// fails if any child does — the single-command entry point
// `make socket-smoke` builds on.
func (o *options) spawnGroup() error {
	n := o.spawnLocal
	if n < 2 {
		return fmt.Errorf("-spawn-local needs at least 2 processes, got %d", n)
	}
	if o.cpuProfile != "" || o.memProfile != "" { // per-process: no child is handed them
		return fmt.Errorf("-cpuprofile/-memprofile profile one process; run the group's processes with -peers instead")
	}
	addrs, err := reservePorts(n)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.stdout, "spawning %d local processes: %s\n", n, strings.Join(addrs, " "))

	argv, shared := make([][]string, n), o.childArgs()
	for g := range argv {
		slot := []string{"-listen", addrs[g], "-peers", strings.Join(addrs, ","), "-group", fmt.Sprint(g)}
		argv[g] = append(slot, shared...)
	}
	wait, err := cli.Spawn("g", argv, o.stdout)
	if err != nil {
		return err
	}
	failed := 0
	for g, err := range wait() {
		if err != nil {
			cli.Warnf(o.stderr, "group %d failed: %v", g, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d processes failed", failed, n)
	}
	fmt.Fprintf(o.stdout, "all %d processes completed cleanly\n", n)
	return nil
}

// reservePorts picks n free localhost ports. The listeners are closed
// before the children bind them — the classic tiny race, harmless on a
// loopback CI box.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer lis.Close() // on return: held until every port is picked, so none is picked twice
		addrs[i] = lis.Addr().String()
	}
	return addrs, nil
}
