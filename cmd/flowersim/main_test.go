package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"flowercdn"
	"flowercdn/internal/cli"
	"flowercdn/internal/harness"
	"flowercdn/internal/runtime"
)

func mustParse(t *testing.T, args ...string) (*options, []string) {
	t.Helper()
	o, warnings, err := parse(flag.NewFlagSet("flowersim", flag.ContinueOnError), args)
	if err != nil {
		t.Fatal(err)
	}
	return o, warnings
}

func mustConfig(t *testing.T, o *options) harness.Config {
	t.Helper()
	hc, err := o.config()
	if err != nil {
		t.Fatal(err)
	}
	return hc
}

// TestDefaultFlagsAreQuickConfig pins that the sim defaults are read
// from flowercdn.QuickConfig, not restated next to the flags.
func TestDefaultFlagsAreQuickConfig(t *testing.T) {
	o, warnings := mustParse(t)
	if len(warnings) != 0 {
		t.Errorf("no flags set, yet warned: %v", warnings)
	}
	want, err := flowercdn.QuickConfig().Lower()
	if err != nil {
		t.Fatal(err)
	}
	want.Backend = "sim" // -backend's default names what QuickConfig leaves implicit
	if got := mustConfig(t, o); !reflect.DeepEqual(got, want) {
		t.Errorf("default flags lower to\n%+v\nwant QuickConfig's\n%+v", got, want)
	}
}

// oneGroup is the slot -backend socket takes without -peers.
var oneGroup = runtime.SocketConfig{Listen: "127.0.0.1:0", Peers: []string{"127.0.0.1:0"}}

// TestWallClockConfigIsDemoPresetPlusOverrides: on the socket backend,
// one process or a group, the built config is the harness's demo preset
// with exactly the flagged knobs carried over.
func TestWallClockConfigIsDemoPresetPlusOverrides(t *testing.T) {
	slot := []string{"-listen", "b:1", "-peers", "a:1, b:1"}
	presets := []struct {
		args   []string
		preset func() harness.Config
	}{
		{[]string{"-backend", "socket"}, func() harness.Config {
			return harness.SocketDemoConfig(50, 5000, oneGroup)
		}},
		{[]string{"-backend", "socket", "-listen", "c:1"}, func() harness.Config {
			return harness.SocketDemoConfig(50, 5000, runtime.SocketConfig{Listen: "c:1", Peers: []string{"c:1"}})
		}},
		{append([]string{"-backend", "socket"}, slot...), func() harness.Config {
			return harness.SocketDemoConfig(50, 5000, runtime.SocketConfig{
				Listen: "b:1", Peers: []string{"a:1", "b:1"}, Group: 1})
		}},
	}
	cases := []struct {
		args     []string
		override func(*harness.Config)
	}{
		{nil, func(*harness.Config) {}},
		{[]string{"-loss", "0.1"}, func(c *harness.Config) { c.MessageLossRate = 0.1 }},
		{[]string{"-cache-policy", "lru", "-cache-capacity", "8"}, func(c *harness.Config) {
			c.Options["cache-policy"], c.Options["cache-capacity"] = "lru", 8
		}},
		{[]string{"-trace-csv", "t.csv"}, func(c *harness.Config) { c.Trace = &harness.TraceConfig{} }},
		{[]string{"-protocol", "squirrel", "-seed", "9"}, func(c *harness.Config) {
			c.Protocol, c.Seed = harness.ProtocolSquirrel, 9
		}},
	}
	for _, p := range presets {
		for _, tc := range cases {
			args := append(append([]string{}, p.args...), tc.args...)
			o, _ := mustParse(t, args...)
			want := p.preset()
			tc.override(&want)
			if got := mustConfig(t, o); !reflect.DeepEqual(got, want) {
				t.Errorf("%v builds\n%+v\nwant\n%+v", args, got, want)
			}
		}
	}
	o, _ := mustParse(t, "-backend", "socket", "-population", "20", "-horizon", "2s")
	if got, want := mustConfig(t, o), harness.SocketDemoConfig(20, 2000, oneGroup); !reflect.DeepEqual(got, want) {
		t.Errorf("-population/-horizon build\n%+v\nwant\n%+v", got, want)
	}
}

// TestEveryFlagSaysWhereItApplies: the warnings and the child arguments
// are read off the tags, so a flag declared without one would escape
// both.
func TestEveryFlagSaysWhereItApplies(t *testing.T) {
	o, _ := mustParse(t)
	var all []string
	o.flags.VisitAll(func(fl *flag.Flag) { all = append(all, "-"+fl.Name+"="+fl.DefValue) })
	if err := o.flags.Parse(all); err != nil {
		t.Fatal(err)
	}
	o.flags.VisitSet(func(tag cli.Tag) bool { return tag&anywhere == 0 }, func(fl *flag.Flag) {
		t.Errorf("-%s is declared without a backend it applies to", fl.Name)
	})
}

func TestIgnoredFlagWarnsOnceAndIsReset(t *testing.T) {
	o, warnings := mustParse(t, "-backend", "socket", "-zipf", "0.2", "-loss", "0.1", "-cpuprofile", "x")
	if len(warnings) != 1 || !strings.Contains(warnings[0], "-zipf is ignored with -backend socket") {
		t.Errorf("warnings = %q, want exactly one, about -zipf", warnings)
	}
	if got, want := o.exp.ZipfAlpha, flowercdn.QuickConfig().ZipfAlpha; got != want {
		t.Errorf("ignored -zipf still set: %v, want the default %v", got, want)
	}
	if _, warnings = mustParse(t, "-obs", ":0", "-p", "100"); len(warnings) != 1 || !strings.Contains(warnings[0], "-obs") {
		t.Errorf("sim warnings = %q, want exactly one, about -obs", warnings)
	}
	if _, warnings = mustParse(t, "-backend", "socket", "-print-fingerprint", "-cpuprofile", "x"); len(warnings) != 1 || !strings.Contains(warnings[0], "-print-fingerprint") {
		t.Errorf("socket warnings = %q, want exactly one, about -print-fingerprint", warnings)
	}
}

// TestSpawnLocalChildArgs: the children get every group-wide flag the
// parent was given and no per-process one, and so build the config the
// parent's flags describe.
func TestSpawnLocalChildArgs(t *testing.T) {
	groupWide := []string{"-backend=socket", "-cache-capacity=8", "-cache-policy=lru",
		"-horizon=2s", "-loss=0.05", "-obs=127.0.0.1:0", "-population=30", "-protocol=squirrel",
		"-seed=7", "-trace-csv=t.csv"}
	o, _ := mustParse(t, append([]string{"--spawn-local", "3", "-listen", "x:1", "--peers=x:1,y:1",
		"-group", "1", "-cpuprofile", "x", "-hours", "3"}, groupWide...)...)
	child := o.childArgs()
	if !reflect.DeepEqual(child, groupWide) {
		t.Errorf("child args = %v\nwant %v", child, groupWide)
	}
	slot := []string{"-listen", "y:1", "-peers", "x:1,y:1", "-group", "1"}
	c, warnings := mustParse(t, append(slot, child...)...)
	if len(warnings) != 0 {
		t.Errorf("child warned: %v", warnings)
	}
	direct, _ := mustParse(t, append(slot, groupWide...)...)
	if got, want := mustConfig(t, c), mustConfig(t, direct); !reflect.DeepEqual(got, want) {
		t.Errorf("child builds\n%+v\nwant\n%+v", got, want)
	}
}

func TestSocketSlotErrors(t *testing.T) {
	o, _ := mustParse(t, "-backend", "socket", "-listen", "c:1", "-peers", "a:1,b:1")
	if _, err := o.config(); err == nil || !strings.Contains(err.Error(), "not in -peers") {
		t.Errorf("-listen outside -peers: error %v, want one saying so", err)
	}
}

// TestFlagNamesArePinned holds the command line to the pinned flag set:
// a new knob, or a flag gone, is an edit to this list.
func TestFlagNamesArePinned(t *testing.T) {
	want := []string{
		"active", "backend", "cache-capacity", "cache-policy", "collab", "cpuprofile",
		"exact-summaries", "gossip-every", "group", "horizon", "hours",
		"interest-skew", "k", "listen", "load-limit", "locality-skew", "loss",
		"measure-mem", "memprofile", "objects", "obs", "p", "peers", "population",
		"print-fingerprint", "print-params", "protocol", "protocols", "push",
		"query-every", "seed", "series", "sites", "spawn-local", "trace-csv",
		"uptime", "zipf",
	}
	o, _ := mustParse(t)
	var got []string
	o.flags.VisitAll(func(fl *flag.Flag) { got = append(got, fl.Name) })
	if !slices.Equal(got, want) {
		t.Errorf("flowersim flags (%d) = %v\nwant the pinned %d: %v", len(got), got, len(want), want)
	}
}

// TestMain doubles as a -spawn-local child: the group forks the running
// executable, which here is the test binary.
func TestMain(m *testing.M) {
	if os.Getenv("FLOWERSIM_TEST_CHILD") != "" {
		cli.Main(run)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// syncBuffer is a bytes.Buffer safe for the concurrent writes of a
// group's relays.
type syncBuffer struct {
	mu sync.Mutex
	bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.Buffer.Write(p)
}

// TestRun drives the command once per mode at a tiny cell: what each
// prints, and the error of each way a command line can fail.
func TestRun(t *testing.T) {
	t.Setenv("FLOWERSIM_TEST_CHILD", "1") // read by the -spawn-local children only
	dir := t.TempDir()
	in := func(name string) string { return filepath.Join(dir, name) }
	for _, tc := range []struct {
		name   string
		args   []string
		stdout []string // substrings, in order
		stderr string   // a substring; "" = nothing on stderr
		err    string   // a substring of the error; "" = success
	}{
		{"protocols", []string{"-protocols"}, []string{
			"flower         Flower-CDN", "petalup", "squirrel", "chord-global", "koorde-global", "origin-only"}, "", ""},
		{"params", []string{"-p", "60", "-hours", "1", "-print-params"}, []string{
			"cell: -hours=1 -p=60\n", "60"}, "", ""},
		{"sim", []string{"-p", "60", "-hours", "1", "-series", "-measure-mem", "-obs", ":0",
			"-trace-csv", in("sim.csv"), "-cpuprofile", in("cpu.out"), "-memprofile", in("mem.out")}, []string{
			"cell: -hours=1 -p=60\n", "completed in ", "traces: ", " records written to " + in("sim.csv"),
			"flower P=60 (1 h): hit ratio", "lookup: ", "transfer: ", "memory: ", "hour  hit-ratio  queries\n   1  "},
			"-obs is ignored with -backend sim", ""},
		{"socket", []string{"-backend", "socket", "-population", "20", "-horizon", "1s", "-obs", "127.0.0.1:0",
			"-trace-csv", in("sock.csv"), "-hours", "3"}, []string{
			"observability: serving /metrics and /traces on http://127.0.0.1:", "live flower run: population 20, horizon 1s",
			"hit-ratio", "completed in ", "wire: codec=binary", "traces: ", "group 0: clean shutdown, "},
			"-hours is ignored with -backend socket", ""},
		{"spawn-local", []string{"-backend", "socket", "-spawn-local", "2", "-population", "20", "-horizon", "2s"}, []string{
			"spawning 2 local processes: 127.0.0.1:", "all 2 processes completed cleanly\n"}, "", ""},

		{"bad flag", []string{"-bogus"}, nil, "flag provided but not defined: -bogus", "-bogus"},
		{"bad backend", []string{"-backend", "bogus", "-p", "60", "-hours", "1"}, []string{"cell: "}, "", "[sim socket]"},
		{"too many localities", []string{"-p", "60", "-hours", "1", "-k", "257"}, []string{"cell: "}, "", "256"},
		{"unwritable trace", []string{"-p", "60", "-hours", "1", "-trace-csv", in("no/such/dir.csv")}, nil, "", "no such file"},
		{"listen outside the group", []string{"-backend", "socket", "-listen", "c:1", "-peers", "a:1,b:1"}, nil, "", "not in -peers"},
		{"bad obs address", []string{"-backend", "socket", "-obs", "127.0.0.1:-1"}, nil, "", "-1"},
		{"group of one", []string{"-backend", "socket", "-spawn-local", "1"}, nil, "", "at least 2 processes"},
		{"profiled group", []string{"-backend", "socket", "-spawn-local", "2", "-cpuprofile", in("x")}, nil, "", "profile one process"},
		{"failed group", []string{"-backend", "socket", "-spawn-local", "2", "-protocol", "bogus", "-horizon", "1s"}, []string{
			"spawning 2 local processes"}, "group 0 failed", "2 of 2 processes failed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout syncBuffer
			var stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
				t.Fatalf("run %v: error %v, want %q", tc.args, err, tc.err)
			}
			out := stdout.String()
			for _, want := range tc.stdout {
				i := strings.Index(out, want)
				if i < 0 {
					t.Fatalf("stdout lacks %q in order:\n%s", want, stdout.String())
				}
				out = out[i+len(want):]
			}
			if got := stderr.String(); !strings.Contains(got, tc.stderr) || (tc.stderr == "") != (got == "") {
				t.Errorf("stderr = %q, want %q in it", got, tc.stderr)
			}
		})
	}
}

// TestPrintFingerprintIsOneLine: make fingerprint-check compares
// exactly this line across processes.
func TestPrintFingerprintIsOneLine(t *testing.T) {
	var stdout bytes.Buffer
	err := run([]string{"-p", "60", "-hours", "1", "-print-fingerprint"}, &stdout, io.Discard)
	if err != nil || !regexp.MustCompile(`^[0-9a-f]{16}\n$`).MatchString(stdout.String()) {
		t.Errorf("printed %q (error %v), want one line of 16 hex digits", stdout.String(), err)
	}
}
