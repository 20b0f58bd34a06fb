// Command flowersim runs a single experiment with every Table 1
// parameter exposed as a flag and prints the run's metrics.
//
// Usage:
//
//	flowersim -protocol flower -p 3000 -hours 24
//	flowersim -protocol squirrel -p 500 -hours 6 -seed 7
//	flowersim -protocol origin-only -p 400   # the floor any CDN must beat
//	flowersim -cache-policy lru -cache-capacity 16   # capacity-bounded peer stores
//	flowersim -protocols                     # list registered protocols
//	flowersim -print-params
//
// With -backend realtime the identical protocol code runs on
// wall-clock timers instead of the deterministic simulator: the run
// takes -horizon of real time and prints each metric window live as it
// closes. Timescales are compressed (~3600×) so seconds exhibit the
// full protocol lifecycle:
//
//	flowersim -backend realtime -population 50 -horizon 5s
//
// With -backend socket the same live run spans cooperating OS
// processes over TCP — one listener per process, the population
// partitioned across them. Direct mode — run each process yourself (any
// mix of terminals or machines sharing a loopback/LAN):
//
//	flowersim -backend socket -listen 127.0.0.1:7001 \
//	    -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 -population 50 -horizon 5s
//	flowersim -backend socket -listen 127.0.0.1:7002 -peers ... (same list)
//	flowersim -backend socket -listen 127.0.0.1:7003 -peers ... (same list)
//
// The group index defaults to the position of -listen in -peers; give
// -group to override (e.g. when listening on 0.0.0.0). -groups, when
// set, asserts the expected group count against the peer list.
// Convenience mode — fork the whole group locally (demos, CI):
//
//	flowersim -backend socket -spawn-local 3 -population 50 -horizon 5s
//
// Every backend takes one path: declare fills the options, config builds
// the harness.Config, run executes it, report prints it. A flag says
// once which backends it applies to; the "ignored with -backend X"
// warnings and -spawn-local's child arguments are read off that.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
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

// The flag tags: which backends a flag applies to, and whether it names
// one process's slot in a socket group (so -spawn-local sets it per
// child instead of handing its own value down).
const (
	onSim cli.Tag = 1 << iota
	onRealtime
	onSocket
	perProcess

	wallClock = onRealtime | onSocket
	anywhere  = onSim | wallClock
)

// options is everything the command line sets.
type options struct {
	flags   *cli.Flags
	backend string
	on      cli.Tag // the selected backend's bit, set by parse
	// exp is the experiment as the sim backend runs it, every Table 1
	// knob. The wall-clock backends take their scale from the demo presets
	// (population, horizon) and from exp only the knobs tagged for them.
	exp        flowercdn.Config
	population int
	horizon    time.Duration
	// sock holds -listen, -group and -codec; socket() adds the peer list.
	sock               runtime.SocketConfig
	peers              string
	groups, spawnLocal int

	traceCSV, obs          string
	cpuProfile, memProfile string
	listProtocols, series  bool
	printParams, printFP   bool
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
	cli.Bind(f, anywhere, &o.backend, "backend", fmt.Sprintf("runtime backend, one of %v", flowercdn.Backends()))
	cli.Bind(f, anywhere, &o.listProtocols, "protocols", "list registered protocols and exit")
	cli.Bind(f, anywhere, &o.traceCSV, "trace-csv", "enable per-query tracing and write hop-by-hop records to this CSV file (socket backend: group 0 only)")
	cli.Bind(f, wallClock, &o.obs, "obs", "wall-clock backends: serve live /metrics and /traces on this address during the run (implies tracing)")
	cli.Bind(f, onSim|onRealtime, &o.printFP, "print-fingerprint", "print only the run fingerprint (for cross-process determinism checks)")
	cli.Bind(f, onSim|onRealtime, &o.cpuProfile, "cpuprofile", "write a CPU profile of the run to this file")
	cli.Bind(f, onSim|onRealtime, &o.memProfile, "memprofile", "write an end-of-run heap profile to this file")
	cli.Bind(f, onSim, &o.exp.MeasureMem, "measure-mem", "sample the live heap after the run (forced GC) and print bytes/node")
	cli.Bind(f, onSim, &o.series, "series", "print the hourly hit-ratio series")
	cli.Bind(f, onSim, &o.printParams, "print-params", "print the Table 1 parameter sheet and exit")

	cli.Bind(f, wallClock, &o.population, "population", "realtime backend: mean population size")
	cli.Bind(f, wallClock, &o.horizon, "horizon", "realtime backend: wall-clock run length")
	cli.Bind(f, onSocket, &o.sock.Codec, "codec", fmt.Sprintf("socket backend: wire codec, one of %v (empty = %s)", flowercdn.Codecs(), runtime.DefaultCodec))
	cli.Bind(f, onSocket|perProcess, &o.sock.Listen, "listen", "socket backend: this process's TCP listen address")
	cli.Bind(f, onSocket|perProcess, &o.peers, "peers", "socket backend: comma-separated index-ordered group addresses")
	cli.Bind(f, onSocket|perProcess, &o.sock.Group, "group", "socket backend: this process's index in -peers (default: position of -listen)")
	cli.Bind(f, onSocket|perProcess, &o.groups, "groups", "socket backend: expected group count (asserted against -peers)")
	cli.Bind(f, onSocket|perProcess, &o.spawnLocal, "spawn-local", "socket backend: fork N local processes into one population")
	return o
}

// parse declares the flag table on fs, parses args and puts every set
// flag that does not apply to the chosen backend back to its default,
// with one warning each. Resetting makes "ignored" true by construction:
// no later stage has to know which flags its backend honours.
func parse(fs *flag.FlagSet, args []string) (*options, []string, error) {
	o := declare(fs)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	// An unregistered backend name takes the sim path, where the harness
	// rejects it with the list of registered ones.
	why := "scale comes from -population/-horizon"
	switch o.backend {
	case "realtime":
		o.on = onRealtime
	case "socket":
		o.on = onSocket
	default:
		o.on, why = onSim, "it belongs to the wall-clock backends"
	}
	var warnings []string
	o.flags.VisitSet(func(t cli.Tag) bool { return t&o.on == 0 }, func(fl *flag.Flag) {
		_ = fl.Value.Set(fl.DefValue) // a flag's own default always parses
		warnings = append(warnings, fmt.Sprintf("-%s is ignored with -backend %s (%s)", fl.Name, o.backend, why))
	})
	return o, warnings, nil
}

func main() {
	o, warnings, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		cli.Fatal(err)
	}
	for _, w := range warnings {
		cli.Warnf("%s", w)
	}
	if err := o.main(); err != nil {
		cli.Fatal(err)
	}
}

func (o *options) main() error {
	if o.listProtocols {
		for _, p := range flowercdn.Protocols() {
			fmt.Printf("%-14s %s\n", p, flowercdn.ProtocolSummary(p))
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
		fmt.Println(strings.Join(append([]string{"cell:"}, o.exp.Cell()...), " "))
	}
	if o.printParams {
		fmt.Print(harness.FormatTable1(hc))
		return nil
	}
	res, elapsed, err := o.run(hc)
	if err != nil {
		return err
	}
	return o.report(hc, res, elapsed)
}

// config builds the run's harness.Config. The sim backend lowers the
// whole experiment through the façade. The wall-clock backends start
// from the harness's compressed demo presets — scale comes from
// -population/-horizon — and take over the knobs that are not scale,
// here and nowhere else.
func (o *options) config() (harness.Config, error) {
	c := o.exp
	c.Trace = o.traceCSV != "" || o.obs != ""
	var hc harness.Config
	switch o.on {
	case onSim:
		c.Backend = o.backend
		return c.Lower()
	case onRealtime:
		hc = harness.RealtimeDemoConfig(o.population, o.horizon.Milliseconds())
	case onSocket:
		sock, err := o.socket()
		if err != nil {
			return hc, err
		}
		hc = harness.SocketDemoConfig(o.population, o.horizon.Milliseconds(), sock)
	}
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

// run executes hc between the profiles, serving the observability
// endpoint and printing live windows on the wall-clock backends.
func (o *options) run(hc harness.Config) (*harness.Result, time.Duration, error) {
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
		fmt.Printf("observability: serving /metrics and /traces on http://%s\n", bound)
	}
	if o.on&wallClock != 0 && !o.printFP {
		hc.OnWindow = func(p metrics.SeriesPoint) {
			fmt.Printf("[%5.1fs] hit-ratio %.3f  queries %4d  lookup %5.0fms  transfer %4.0fms\n",
				float64(p.Start+hc.SeriesWindow)/1000, p.HitRatio, p.Queries, p.MeanLookupMs, p.MeanTransferMs)
		}
		if s := hc.Socket; s != nil {
			fmt.Printf("socket group %d/%d on %s: ", s.Group, len(s.Peers), s.Listen)
		}
		fmt.Printf("live %s run: population %d, horizon %v, %d ms windows\n",
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
// make fingerprint-check (on realtime the value is not reproducible).
func (o *options) report(hc harness.Config, res *harness.Result, elapsed time.Duration) error {
	if o.printFP {
		fmt.Printf("%016x\n", res.Fingerprint)
		return nil
	}
	fmt.Printf("completed in %v\n", elapsed.Round(time.Millisecond))
	if w := res.Wire; w != nil {
		perBatch := float64(w.FramesSent) / float64(max(w.BatchesSent, 1))
		fmt.Printf("wire: codec=%s, %d frames in %d batches out (%.1f frames/batch), %d bytes out, %d bytes in\n",
			w.Codec, w.FramesSent, w.BatchesSent, perBatch, w.BytesSent, w.BytesRead)
	}
	if o.traceCSV != "" && leads(hc) {
		err := cli.WriteTo(o.traceCSV, func(w io.Writer) error { return trace.WriteCSV(w, res.Traces) })
		if err != nil {
			return err
		}
		fmt.Printf("traces: %d records written to %s\n", len(res.Traces), o.traceCSV)
	}
	fmt.Print(harness.FormatSummary(res))
	fmt.Printf("lookup: %.0f%% within 150 ms, %.0f%% beyond 1200 ms\n",
		100*res.LookupWithin150ms(), 100*res.LookupBeyond1200ms())
	fmt.Printf("transfer: %.0f%% within 100 ms\n", 100*res.TransferWithin100ms())
	if m := res.MemStats; m != nil {
		fmt.Printf("memory: %.0f B/node live heap (%.1f MiB total, %d mallocs)\n",
			m.BytesPerNode, float64(m.HeapAllocBytes)/(1<<20), m.Mallocs)
	}
	if o.series {
		fmt.Println("hour  hit-ratio  queries")
		for i, pt := range res.Series {
			fmt.Printf("%4d  %9.3f  %7d\n", i+1, pt.HitRatio, pt.Queries)
		}
	}
	if s := hc.Socket; s != nil {
		// The socket smoke contract: this process issued queries and they
		// were answered (served from a peer or the origin — not abandoned).
		// A process that cannot say so exits non-zero.
		switch answered := res.Hits + res.Misses; {
		case res.Queries == 0:
			return fmt.Errorf("no live queries issued in group %d", s.Group)
		case answered == 0:
			return fmt.Errorf("no live query answered in group %d (%d issued)", s.Group, res.Queries)
		default:
			fmt.Printf("group %d: clean shutdown, %d/%d queries answered\n", s.Group, answered, res.Queries)
		}
	}
	return nil
}

// socket resolves this process's slot in its socket group from -listen,
// -peers, -group and -groups.
func (o *options) socket() (runtime.SocketConfig, error) {
	sock := o.sock
	sock.Peers = strings.FieldsFunc(o.peers, func(r rune) bool { return r == ',' || r == ' ' })
	if len(sock.Peers) == 0 {
		return sock, fmt.Errorf("socket backend needs -peers (or -spawn-local N)")
	}
	if o.groups > 0 && o.groups != len(sock.Peers) {
		return sock, fmt.Errorf("-groups %d but -peers lists %d addresses", o.groups, len(sock.Peers))
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
	addrs, err := reservePorts(n)
	if err != nil {
		return err
	}
	fmt.Printf("spawning %d local processes: %s\n", n, strings.Join(addrs, " "))

	argv, shared := make([][]string, n), o.childArgs()
	for g := range argv {
		slot := []string{"-listen", addrs[g], "-peers", strings.Join(addrs, ","), "-group", fmt.Sprint(g)}
		argv[g] = append(slot, shared...)
	}
	wait, err := cli.Spawn("g", argv)
	if err != nil {
		return err
	}
	failed := 0
	for g, err := range wait() {
		if err != nil {
			cli.Warnf("group %d failed: %v", g, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d processes failed", failed, n)
	}
	fmt.Printf("all %d processes completed cleanly\n", n)
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
