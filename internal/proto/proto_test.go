package proto

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func stubFactory(Options) (func(Env) (System, error), error) { return nil, errors.New("stub") }

func TestRegistryResolvesByName(t *testing.T) {
	Register(Info{Name: "test-a", Summary: "a", Compare: true, Order: 10}, stubFactory)
	Register(Info{Name: "test-b", Summary: "b", Order: 11}, stubFactory)

	if !Registered("test-a") || !Registered("test-b") {
		t.Fatal("registered names do not resolve")
	}
	if Registered("test-nope") {
		t.Fatal("unknown name resolves")
	}
	info, ok := Lookup("test-a")
	if !ok || info.Summary != "a" || !info.Compare {
		t.Fatalf("Lookup returned %+v, %v", info, ok)
	}
	if _, err := New("test-nope", Env{}, nil); err == nil {
		t.Fatal("New accepted an unknown protocol")
	}
	// The stub factory's error propagates through New.
	if _, err := New("test-a", Env{}, nil); err == nil || err.Error() != "stub" {
		t.Fatalf("New error = %v", err)
	}
}

func TestRegistryOrdering(t *testing.T) {
	// Self-contained registrations (the registry is process-global, so
	// this test must not lean on entries other tests add).
	Register(Info{Name: "test-z-first", Order: -2, Compare: true}, stubFactory)
	Register(Info{Name: "test-a-second", Order: -1, Compare: true}, stubFactory)
	Register(Info{Name: "test-nocompare", Order: -1}, stubFactory)
	names := CompareNames()
	if len(names) < 2 || names[0] != "test-z-first" || names[1] != "test-a-second" {
		t.Fatalf("ordering not by (Order, Name): %v", names)
	}
	// Compare=false names appear in Names but not CompareNames.
	all := Names()
	found := false
	for _, n := range all {
		if n == "test-nocompare" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() missing non-compare entry: %v", all)
	}
	for _, n := range names {
		if n == "test-nocompare" {
			t.Fatal("CompareNames() includes Compare=false entry")
		}
	}
}

func TestRegisterPanics(t *testing.T) {
	cases := []func(){
		func() { Register(Info{Name: ""}, stubFactory) },
		func() { Register(Info{Name: "test-dup"}, nil) },
		func() {
			Register(Info{Name: "test-dup"}, stubFactory)
			Register(Info{Name: "test-dup"}, stubFactory)
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestOptionsGetters(t *testing.T) {
	o := Options{
		"int":    3,
		"i64":    int64(7),
		"f":      2.5,
		"b":      true,
		"s":      "x",
		"badint": "nope",
	}
	if o.Int("int", 9) != 3 || o.Int("i64", 9) != 7 || o.Int("f", 9) != 2 {
		t.Fatal("Int coercions wrong")
	}
	if o.Int("missing", 9) != 9 || o.Int("badint", 9) != 9 {
		t.Fatal("Int defaults wrong")
	}
	if o.Duration("i64", 1) != 7 || o.Duration("int", 1) != 3 || o.Duration("missing", 1) != 1 {
		t.Fatal("Duration wrong")
	}
	if o.Float("f", 0) != 2.5 || o.Float("int", 0) != 3 || o.Float("missing", 1.5) != 1.5 {
		t.Fatal("Float wrong")
	}
	if !o.Bool("b", false) || o.Bool("missing", true) != true || o.Bool("s", false) {
		t.Fatal("Bool wrong")
	}
	if o.String("s", "d") != "x" || o.String("missing", "d") != "d" {
		t.Fatal("String wrong")
	}
	want := []string{"b", "badint", "f", "i64", "int", "s"}
	if !reflect.DeepEqual(o.Keys(), want) {
		t.Fatalf("Keys() = %v", o.Keys())
	}
	if Options(nil).Int("x", 5) != 5 {
		t.Fatal("nil Options getter wrong")
	}
}

// A driver is one lowering: Check's verdict is the lowering's error and
// nothing else, New's too, and New is where an incomplete Env is turned
// away — before build is called, naming the protocol.
func TestCheckAndNewShareOneLowering(t *testing.T) {
	errBad := errors.New("bad knob")
	var lowered, built int
	Register(Info{Name: "test-lowering"}, func(opts Options) (func(Env) (System, error), error) {
		lowered++
		if opts.Bool("bad", false) {
			return nil, errBad
		}
		return func(Env) (System, error) { built++; return nil, nil }, nil
	})
	if err := Check("test-lowering", Options{"bad": true}); err != errBad {
		t.Fatalf("Check = %v, want the lowering's own error", err)
	}
	if _, err := New("test-lowering", Env{}, Options{"bad": true}); err != errBad {
		t.Fatalf("New = %v, want the lowering's own error", err)
	}
	if err := Check("test-lowering", nil); err != nil {
		t.Fatalf("Check(good) = %v", err)
	}
	if lowered != 3 || built != 0 {
		t.Fatalf("lowered %d times, built %d; Check and a failed New must lower once each and never build", lowered, built)
	}
	_, err := New("test-lowering", Env{}, nil)
	if err == nil || !strings.Contains(err.Error(), "incomplete Env for test-lowering") || built != 0 {
		t.Fatalf("New with an empty Env: err %v, built %d", err, built)
	}
	if err := Check("test-nope", nil); err == nil {
		t.Fatal("Check accepted an unknown protocol")
	}
}
