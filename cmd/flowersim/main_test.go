package main

import (
	"flag"
	"reflect"
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
	quick := flowercdn.QuickConfig()
	quick.Backend = "sim" // -backend's default names what QuickConfig leaves implicit
	want, err := quick.Lower()
	if err != nil {
		t.Fatal(err)
	}
	if got := mustConfig(t, o); !reflect.DeepEqual(got, want) {
		t.Errorf("default flags lower to\n%+v\nwant QuickConfig's\n%+v", got, want)
	}
}

// TestWallClockConfigIsDemoPresetPlusOverrides: on the wall-clock
// backends the built config is the harness's demo preset with exactly
// the flagged knobs carried over.
func TestWallClockConfigIsDemoPresetPlusOverrides(t *testing.T) {
	slot := []string{"-listen", "b:1", "-peers", "a:1, b:1"}
	presets := []struct {
		args   []string
		preset func(codec string) harness.Config
	}{
		{[]string{"-backend", "realtime"}, func(string) harness.Config {
			return harness.RealtimeDemoConfig(50, 5000)
		}},
		{append([]string{"-backend", "socket"}, slot...), func(codec string) harness.Config {
			return harness.SocketDemoConfig(50, 5000, runtime.SocketConfig{
				Listen: "b:1", Peers: []string{"a:1", "b:1"}, Group: 1, Codec: codec})
		}},
	}
	cases := []struct {
		args     []string
		codec    string // what -codec does on the socket backend
		override func(*harness.Config)
	}{
		{nil, "", func(*harness.Config) {}},
		{[]string{"-loss", "0.1"}, "", func(c *harness.Config) { c.MessageLossRate = 0.1 }},
		{[]string{"-cache-policy", "lru", "-cache-capacity", "8"}, "", func(c *harness.Config) {
			c.Options["cache-policy"], c.Options["cache-capacity"] = "lru", 8
		}},
		{[]string{"-trace-csv", "t.csv"}, "", func(c *harness.Config) { c.Trace = &harness.TraceConfig{} }},
		{[]string{"-codec", "binary"}, "binary", func(*harness.Config) {}},
		{[]string{"-protocol", "squirrel", "-seed", "9"}, "", func(c *harness.Config) {
			c.Protocol, c.Seed = harness.ProtocolSquirrel, 9
		}},
	}
	for _, p := range presets {
		for _, tc := range cases {
			args := append(append([]string{}, p.args...), tc.args...)
			o, _ := mustParse(t, args...)
			want := p.preset(tc.codec)
			tc.override(&want)
			if got := mustConfig(t, o); !reflect.DeepEqual(got, want) {
				t.Errorf("%v builds\n%+v\nwant\n%+v", args, got, want)
			}
		}
	}
	o, _ := mustParse(t, "-backend", "realtime", "-population", "20", "-horizon", "2s")
	if got, want := mustConfig(t, o), harness.RealtimeDemoConfig(20, 2000); !reflect.DeepEqual(got, want) {
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
	o, warnings := mustParse(t, "-backend", "socket", "-zipf", "0.2", "-loss", "0.1", "-codec", "binary")
	if len(warnings) != 1 || !strings.Contains(warnings[0], "-zipf is ignored with -backend socket") {
		t.Errorf("warnings = %q, want exactly one, about -zipf", warnings)
	}
	if got, want := o.exp.ZipfAlpha, flowercdn.QuickConfig().ZipfAlpha; got != want {
		t.Errorf("ignored -zipf still set: %v, want the default %v", got, want)
	}
	if _, warnings = mustParse(t, "-obs", ":0", "-p", "100"); len(warnings) != 1 || !strings.Contains(warnings[0], "-obs") {
		t.Errorf("sim warnings = %q, want exactly one, about -obs", warnings)
	}
	if _, warnings = mustParse(t, "-backend", "realtime", "-codec", "binary", "-cpuprofile", "x"); len(warnings) != 1 {
		t.Errorf("realtime warnings = %q, want exactly one, about -codec", warnings)
	}
}

// TestSpawnLocalChildArgs: the children get every group-wide flag the
// parent was given and no per-process one, and so build the config the
// parent's flags describe.
func TestSpawnLocalChildArgs(t *testing.T) {
	groupWide := []string{"-backend=socket", "-cache-capacity=8", "-cache-policy=lru", "-codec=binary",
		"-horizon=2s", "-loss=0.05", "-obs=127.0.0.1:0", "-population=30", "-protocol=squirrel",
		"-seed=7", "-trace-csv=t.csv"}
	o, _ := mustParse(t, append([]string{"--spawn-local", "3", "-listen", "x:1", "--peers=x:1,y:1",
		"-group", "1", "-groups", "2", "-hours", "3"}, groupWide...)...)
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
	for _, tc := range []struct{ args, want string }{
		{"", "needs -peers"},
		{"-listen c:1 -peers a:1,b:1", "not in -peers"},
		{"-listen a:1 -peers a:1,b:1 -groups 3", "-groups 3 but -peers lists 2"},
	} {
		o, _ := mustParse(t, append([]string{"-backend", "socket"}, strings.Fields(tc.args)...)...)
		if _, err := o.config(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
