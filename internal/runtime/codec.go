package runtime

import "fmt"

// Codec serializes the interface-typed message payloads that cross a
// process boundary (Send/Request/Response payloads and Bus
// announcements). A codec is per-transport state, not global: the
// socket backend constructs one per Transport so codecs may keep
// internal tables without cross-run interference.
//
// There are two, in a fixed table behind NewCodec: "binary", the one a
// run uses, is the hand-rolled codec built from the wire-type
// registry's tag table and each type's WireMessage implementation;
// "gob" is the compatibility codec — self-describing frames, no
// per-type code, 20–130× slower — which no flag or option selects and
// only its own tests and the benchmark's codec ladder reach, by name.
type Codec interface {
	// Name returns the codec's name in the table.
	Name() string
	// AppendMessage appends msg's encoding (including any type tag) to
	// buf and returns the extended slice. A nil msg is legal (routed
	// lookups carry nil payloads). The concrete type of msg must be
	// registered with RegisterWireType.
	AppendMessage(buf []byte, msg any) ([]byte, error)
	// DecodeMessage decodes exactly one message from b, consuming all
	// of it. The returned value never aliases b — callers reuse frame
	// buffers. Arbitrary input must fail with an error, never panic.
	DecodeMessage(b []byte) (any, error)
}

// DefaultCodec is the codec used when no name is configured.
const DefaultCodec = "binary"

// codecs is every codec there is, sorted by name.
var codecs = []struct {
	name  string
	build func() (Codec, error)
}{
	{"binary", newBinaryCodec},
	{"gob", newGobCodec},
}

// Codecs returns the codec names, sorted.
func Codecs() []string {
	out := make([]string, len(codecs))
	for i, c := range codecs {
		out[i] = c.name
	}
	return out
}

// NewCodec builds a fresh instance of the named codec; "" resolves to
// DefaultCodec.
func NewCodec(name string) (Codec, error) {
	build, err := codecBuilder(name)
	if err != nil {
		return nil, err
	}
	return build()
}

// codecBuilder looks name up in the table without building anything.
func codecBuilder(name string) (func() (Codec, error), error) {
	if name == "" {
		name = DefaultCodec
	}
	for _, c := range codecs {
		if c.name == name {
			return c.build, nil
		}
	}
	return nil, fmt.Errorf("runtime: unknown codec %q (one of %v)", name, Codecs())
}
