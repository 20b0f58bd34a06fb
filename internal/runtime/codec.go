package runtime

import (
	"fmt"
	"sort"
)

// Codec serializes the interface-typed message payloads that cross a
// process boundary (Send/Request/Response payloads and Bus
// announcements). A codec is per-transport state, not global: the
// socket backend constructs one per Transport so codecs may keep
// internal tables without cross-run interference.
//
// Codecs are name-registered like protocols, backends and cache
// policies. "binary", the default, is the hand-rolled codec built from
// the wire-type registry's tag table and each type's WireMessage
// implementation; "gob" is the compatibility codec — self-describing
// frames, no per-type code, 20–130× slower — reachable only by name.
type Codec interface {
	// Name returns the registered codec name.
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

// CodecFactory builds a fresh Codec instance for one transport.
type CodecFactory func() (Codec, error)

var codecs = map[string]CodecFactory{}

// RegisterCodec adds a named codec to the registry. Registering a
// duplicate name panics — it indicates conflicting packages, not a
// runtime condition.
func RegisterCodec(name string, f CodecFactory) {
	if name == "" || f == nil {
		panic("runtime: RegisterCodec with empty name or nil factory")
	}
	if _, dup := codecs[name]; dup {
		panic(fmt.Sprintf("runtime: codec %q registered twice", name))
	}
	codecs[name] = f
}

// CodecRegistered reports whether name resolves to a codec ("" counts
// as the default).
func CodecRegistered(name string) bool {
	if name == "" {
		name = DefaultCodec
	}
	_, ok := codecs[name]
	return ok
}

// Codecs returns the registered codec names, sorted.
func Codecs() []string {
	out := make([]string, 0, len(codecs))
	for name := range codecs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewCodec builds a fresh instance of a registered codec; "" resolves
// to DefaultCodec.
func NewCodec(name string) (Codec, error) {
	if name == "" {
		name = DefaultCodec
	}
	f, ok := codecs[name]
	if !ok {
		return nil, fmt.Errorf("runtime: unknown codec %q (registered: %v)", name, Codecs())
	}
	return f()
}
