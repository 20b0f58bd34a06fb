package runtime

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
)

// The gob codec: every payload is an independent, self-describing gob
// stream. It needs no per-type code — any gob-encodable registered
// wire type works — which is why it stays as the compatibility codec
// (-codec gob; nothing selects it by default); the price is type
// information in every message and ~300 allocations per frame round
// trip (see BenchmarkFrameRoundTrip), which is what the binary codec,
// the default, exists to remove.

func init() {
	RegisterCodec("gob", func() (Codec, error) {
		registerGobWireTypes()
		return gobCodec{}, nil
	})
}

var gobRegOnce sync.Once

// registerGobWireTypes teaches gob every concrete type that may appear
// behind an interface. All wire-type registrations happen in package
// init functions, which have run by the time any codec is constructed;
// gob.Register is idempotent for identical (name, type) pairs, but the
// Once avoids re-walking the registry per transport.
func registerGobWireTypes() {
	gobRegOnce.Do(func() {
		for _, v := range WireTypes() {
			gob.Register(v)
		}
	})
}

// gobPayload wraps the interface-typed message so gob transmits the
// concrete type's identity.
type gobPayload struct {
	M any
}

type gobCodec struct{}

func (gobCodec) Name() string { return "gob" }

var gobBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (gobCodec) AppendMessage(buf []byte, msg any) ([]byte, error) {
	bb := gobBufPool.Get().(*bytes.Buffer)
	bb.Reset()
	if err := gob.NewEncoder(bb).Encode(gobPayload{M: msg}); err != nil {
		gobBufPool.Put(bb)
		return nil, fmt.Errorf("runtime: gob encode %T: %w", msg, err)
	}
	buf = append(buf, bb.Bytes()...)
	gobBufPool.Put(bb)
	return buf, nil
}

func (gobCodec) DecodeMessage(b []byte) (any, error) {
	var p gobPayload
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&p); err != nil {
		return nil, fmt.Errorf("runtime: gob decode: %w", err)
	}
	return p.M, nil
}
