// Package wiretest is the shared round-trip harness for protocol wire
// messages: each protocol package's wire_test.go pushes realistic,
// fully populated exemplars (nested interface payloads included)
// through every registered codec and asserts nothing changes in
// flight. It complements the socket backend's reflect-driven
// TestCodecEquivalence, which covers every registered type but leaves
// interface-typed fields nil.
package wiretest

import (
	"bytes"
	"reflect"
	"testing"

	"flowercdn/internal/runtime"
)

// RoundTrip encodes msg with every registered codec, decodes it back,
// and fails unless the result is DeepEqual to the original. For the
// binary codec it additionally re-encodes the decoded value and
// requires byte identity — the canonical-encoding property the fuzz
// targets rely on.
//
// Gob drops zero-valued fields and turns empty collections into nil,
// so exemplars should use nil (not empty non-nil) slices and maps for
// absent collections; the binary codec mirrors that convention.
func RoundTrip(t *testing.T, msg any) {
	t.Helper()
	for _, name := range runtime.Codecs() {
		c, err := runtime.NewCodec(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		enc, err := c.AppendMessage(nil, msg)
		if err != nil {
			t.Fatalf("%s: encode %T: %v", name, msg, err)
		}
		dec, err := c.DecodeMessage(enc)
		if err != nil {
			t.Fatalf("%s: decode %T: %v", name, msg, err)
		}
		if !reflect.DeepEqual(dec, msg) {
			t.Fatalf("%s: %T changed across the round trip:\n in: %#v\nout: %#v", name, msg, msg, dec)
		}
		if name != "binary" {
			continue
		}
		re, err := c.AppendMessage(nil, dec)
		if err != nil {
			t.Fatalf("binary: re-encode %T: %v", msg, err)
		}
		if !bytes.Equal(re, enc) {
			t.Fatalf("binary: %T re-encode is not canonical:\n in: %x\nout: %x", msg, enc, re)
		}
	}
}

// BinaryAllocs pins the binary codec's allocation budget for msg:
// encoding into a buffer with room allocates nothing, and decoding
// allocates decodeAllocs objects — the decoded value itself (boxing it
// into the returned interface is one) and whatever it points to.
func BinaryAllocs(t *testing.T, msg any, decodeAllocs float64) {
	t.Helper()
	c, err := runtime.NewCodec("binary")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 4096)
	enc, err := c.AppendMessage(buf, msg)
	if err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	if n := testing.AllocsPerRun(200, func() { c.AppendMessage(buf, msg) }); n != 0 {
		t.Errorf("encoding %T allocates %v objects per call, want 0", msg, n)
	}
	if n := testing.AllocsPerRun(200, func() { c.DecodeMessage(enc) }); n != decodeAllocs {
		t.Errorf("decoding %T allocates %v objects per call, want %v", msg, n, decodeAllocs)
	}
}
