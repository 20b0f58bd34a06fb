package proto

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

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
	d := Driver{Info: Info{Name: "test-lowering"}, Lower: func(opts Options) (func(Env) (System, error), error) {
		lowered++
		if opts.Bool("bad", false) {
			return nil, errBad
		}
		return func(Env) (System, error) { built++; return nil, nil }, nil
	}}
	if err := d.Check(Options{"bad": true}); err != errBad {
		t.Fatalf("Check = %v, want the lowering's own error", err)
	}
	if _, err := d.New(Env{}, Options{"bad": true}); err != errBad {
		t.Fatalf("New = %v, want the lowering's own error", err)
	}
	if err := d.Check(nil); err != nil {
		t.Fatalf("Check(good) = %v", err)
	}
	if lowered != 3 || built != 0 {
		t.Fatalf("lowered %d times, built %d; Check and a failed New must lower once each and never build", lowered, built)
	}
	_, err := d.New(Env{}, nil)
	if err == nil || !strings.Contains(err.Error(), "incomplete Env for test-lowering") || built != 0 {
		t.Fatalf("New with an empty Env: err %v, built %d", err, built)
	}
}
