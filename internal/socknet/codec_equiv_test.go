package socknet

import (
	"fmt"
	"reflect"
	"testing"

	// Pull in every protocol driver so the full wire-type registry —
	// chord, gossip, flower, squirrel, baseline, koorde, workload — is
	// populated, exactly as a real deployment populates it.
	_ "flowercdn/internal/protocols"

	"flowercdn/internal/runtime"
)

// TestAllWireTypesBinaryMarshallable is the forcing function for new
// protocol messages: every type in the wire registry must carry a
// binary marshaller, so a RegisterWireType call without a WireMessage
// implementation next to it fails here instead of at runtime.
func TestAllWireTypesBinaryMarshallable(t *testing.T) {
	for _, v := range runtime.WireTypes() {
		if _, ok := v.(runtime.WireMessage); !ok {
			t.Errorf("%T is registered as a wire type but does not implement runtime.WireMessage — add AppendWire/DecodeWire next to its RegisterWireType call", v)
		}
	}
}

// TestCodecEquivalence sends an exemplar of every registered wire type
// through the real frame path under each codec and asserts the
// delivered payloads are identical: switching codec must never change
// what a handler observes. Exemplars are reflect-filled so a field one
// codec silently drops surfaces as a diff rather than a lucky
// zero-for-zero match (interface-typed fields stay nil here; populated
// nested messages are covered by the per-package wire tests).
func TestCodecEquivalence(t *testing.T) {
	codecs := make([]runtime.Codec, 0, 2)
	for _, name := range runtime.Codecs() {
		codecs = append(codecs, testCodec(t, name))
	}
	for _, proto := range runtime.WireTypes() {
		proto := proto
		t.Run(fmt.Sprintf("%T", proto), func(t *testing.T) {
			seed := 0
			msg := fillValue(reflect.TypeOf(proto), &seed)
			f := frame{Kind: frameSend, From: 1, To: 2, Payload: msg}
			delivered := make([]any, len(codecs))
			for i, c := range codecs {
				b, err := appendFrame(nil, f, c)
				if err != nil {
					t.Fatalf("%s encode: %v", c.Name(), err)
				}
				out, err := decodeFrameBody(b, c)
				if err != nil {
					t.Fatalf("%s decode: %v", c.Name(), err)
				}
				delivered[i] = out.Payload
			}
			for i := 1; i < len(codecs); i++ {
				if !reflect.DeepEqual(delivered[0], delivered[i]) {
					t.Fatalf("delivered payloads differ:\n%s: %#v\n%s: %#v",
						codecs[0].Name(), delivered[0], codecs[i].Name(), delivered[i])
				}
			}
			if !reflect.DeepEqual(delivered[0], msg) {
				t.Fatalf("payload changed in flight:\nsent: %#v\n got: %#v", msg, delivered[0])
			}
		})
	}
}

// fillValue builds a deterministic non-zero exemplar of typ: every
// settable field gets a value derived from the running seed.
func fillValue(typ reflect.Type, seed *int) any {
	v := reflect.New(typ).Elem()
	fill(v, seed)
	return v.Interface()
}

func fill(v reflect.Value, seed *int) {
	*seed++
	s := *seed
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(s%2 == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(s))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(s))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(s) / 4)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", s))
	case reflect.Slice:
		sl := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < sl.Len(); i++ {
			fill(sl.Index(i), seed)
		}
		v.Set(sl)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), seed)
		}
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 2; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			fill(k, seed)
			val := reflect.New(v.Type().Elem()).Elem()
			fill(val, seed)
			m.SetMapIndex(k, val)
		}
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fill(p.Elem(), seed)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				fill(f, seed)
			}
		}
	case reflect.Interface:
		// Left nil: nil must survive both codecs; populated nested
		// messages are the per-package wire tests' job.
	}
}
