package main

import (
	"flag"
	"reflect"
	"slices"
	"strings"
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
