package flowercdn

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flowercdn/internal/distsweep"
)

// notCell names the Config fields that say how a run executes or what
// it records, not what it is. Every other field is a cell flag.
var notCell = []string{"Backend", "MeasureMem", "Trace"}

// nudge moves v, a Config field, off its current value.
func nudge(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.25)
	case reflect.String:
		if v.String() == string(Flower) {
			v.SetString(string(Squirrel)) // a protocol must stay registered to lower
		} else {
			v.SetString(v.String() + "x")
		}
	default:
		t.Fatalf("no way to nudge a %s field", v.Kind())
	}
}

// TestEveryConfigFieldIsACellFlag walks Config: a field is either on
// notCell, and then changing it changes no flag, or moving it off
// QuickConfig's value renders exactly one flag of its own. A new field
// with no flag fails here by name.
func TestEveryConfigFieldIsACellFlag(t *testing.T) {
	if got := QuickConfig().Cell(); len(got) != 0 {
		t.Errorf("QuickConfig renders %q, want nothing", got)
	}
	none := QuickConfig()
	none.CachePolicy = "none"
	if got := none.Cell(); len(got) != 0 {
		t.Errorf(`CachePolicy "none" renders %q, want nothing: "" and "none" are one policy`, got)
	}
	typ := reflect.TypeOf(Config{})
	flags := map[string]string{}
	for i := range typ.NumField() {
		name := typ.Field(i).Name
		c := QuickConfig()
		nudge(t, reflect.ValueOf(&c).Elem().Field(i))
		got := c.Cell()
		if slices.Contains(notCell, name) {
			if len(got) != 0 {
				t.Errorf("%s is not part of a cell, yet renders %q", name, got)
			}
			continue
		}
		if len(got) != 1 {
			t.Errorf("Config.%s off its default renders %q, want exactly one flag", name, got)
			continue
		}
		flag, _, _ := strings.Cut(got[0], "=")
		if other, dup := flags[flag]; dup {
			t.Errorf("%s renders %s, as %s does", name, flag, other)
		}
		flags[flag] = name
	}
	if want := typ.NumField() - len(notCell); len(flags) != want {
		t.Errorf("%d cell flags, want %d: %v", len(flags), want, flags)
	}
}

// randomCell draws every cell field of a Config.
func randomCell(rng *rand.Rand) Config {
	var c Config
	v := reflect.ValueOf(&c).Elem()
	for i := range v.NumField() {
		switch f := v.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(rng.Intn(2) == 1)
		case reflect.Int:
			f.SetInt(int64(rng.Intn(5000)))
		case reflect.Uint64:
			f.SetUint(rng.Uint64())
		case reflect.Float64:
			f.SetFloat(rng.Float64() * 3)
		}
	}
	protos := Protocols()
	c.Protocol = protos[rng.Intn(len(protos))]
	policies := append([]string{""}, CachePolicies()...)
	c.CachePolicy = policies[rng.Intn(len(policies))]
	c.MeasureMem, c.Trace = false, false
	return c
}

// TestCellRoundTrip: rendering a config and parsing the form back over
// QuickConfig lowers exactly as the config does — for random cells
// (every field drawn, CachePolicy "" and "none" both among them) and
// for every preset over both bases. A preset over QuickConfig is its
// own canonical form.
func TestCellRoundTrip(t *testing.T) {
	check := func(what string, c Config) {
		t.Helper()
		form := c.Cell()
		back, err := ParseCell(QuickConfig(), form...)
		if err != nil {
			t.Fatalf("%s: %q does not parse: %v", what, form, err)
		}
		want, werr := c.Lower()
		got, gerr := back.Lower()
		if werr != nil || gerr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %q lowers to\n%+v (%v)\nwant\n%+v (%v)", what, form, got, gerr, want, werr)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := range 500 {
		check(fmt.Sprintf("random cell %d", i), randomCell(rng))
	}
	for name, cell := range scenarios {
		preset := strings.Fields(cell)
		for base, cfg := range map[string]Config{"quick": QuickConfig(), "default": DefaultConfig()} {
			c, err := ParseCell(cfg, preset...)
			if err != nil {
				t.Fatalf("%s over %s: %v", name, base, err)
			}
			check(name+" over "+base, c)
			if got := c.Cell(); base == "quick" && !slices.Equal(got, preset) {
				t.Errorf("%s over QuickConfig renders %q, want the preset itself, %q", name, got, preset)
			}
		}
	}
}

func TestParseCellRejectsWhatIsNotACell(t *testing.T) {
	for _, args := range [][]string{{"-backend=sim"}, {"-measure-mem"}, {"-p=1", "stray"}, {"-p=many"}} {
		if _, err := ParseCell(QuickConfig(), args...); err == nil {
			t.Errorf("%q parsed as a cell", args)
		}
	}
}

// distSmokeSum is the spec fingerprint of `make dist-smoke`'s sweep
// (flowerbench -grid compare -seeds 2 -p 100): what its handshake and
// out-dir headers carry. It moves only when a cell's canonical form
// does, never because a Config field was added or deleted.
const distSmokeSum = 0x771064050caf8a1c

func TestDistSmokeSpecFingerprint(t *testing.T) {
	base := QuickConfig()
	base.Population = 100
	cells := Grid{Base: base, Protocols: CompareProtocols()}.Cells()
	seeds := SeedSet(1, 2)
	sum := func(cells []SweepCell) uint64 {
		t.Helper()
		spec, err := lowerSpec(cells, seeds, 0)
		if err != nil {
			t.Fatal(err)
		}
		return distsweep.SpecSum(spec)
	}
	if got := sum(cells); got != distSmokeSum {
		t.Fatalf("dist-smoke spec fingerprint %#x, pinned %#x", got, uint64(distSmokeSum))
	}
	typ := reflect.TypeOf(Config{})
	for i := range typ.NumField() {
		if slices.Contains(notCell, typ.Field(i).Name) {
			continue
		}
		moved := slices.Clone(cells)
		nudge(t, reflect.ValueOf(&moved[0].Config).Elem().Field(i))
		if sum(moved) == distSmokeSum {
			t.Errorf("changing Config.%s of cell %q leaves the fingerprint where it was", typ.Field(i).Name, cells[0].Name)
		}
	}
}
