package runtime

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// The binary codec: a hand-rolled, append-based encoding for the
// high-volume wire types. Each message is a one-byte type tag followed
// by the type's own canonical field encoding (WireMessage); the tag
// table is derived from the wire-type registry by sorting the fully
// qualified type names, so every process of one build assigns
// identical tags without negotiation. Cross-build drift is caught at
// the socket handshake, which carries WireRegistrySum.
//
// Compared to gob this removes the per-message type description, the
// reflection walk and nearly every allocation: the encode path appends
// into the caller's buffer and allocates nothing, the decode path
// allocates only the decoded values themselves. (The writer and reader
// are handed to the message through the WireMessage interface, so they
// would escape to the heap on every call; they are pooled instead, and
// point back at the codec rather than carrying bound-method values.)

// WireMessage is the contract a wire type implements to ride the
// binary codec: append your fields to w, and decode a fresh value from
// r (called on the registered prototype; the receiver's own fields are
// never read). Implementations live next to the type's
// RegisterWireType call; field order is the format, so append and
// decode must mirror exactly.
type WireMessage interface {
	AppendWire(w *WireWriter)
	DecodeWire(r *WireReader) any
}

func init() {
	RegisterCodec("binary", func() (Codec, error) { return newBinaryCodec() })
}

type binaryCodec struct {
	byType  map[reflect.Type]byte
	protos  []WireMessage // indexed by tag-1
	writers sync.Pool     // *WireWriter
	readers sync.Pool     // *WireReader
}

// typeKey returns the fully qualified name a type sorts under —
// package path included, so same-named types in different packages
// cannot collide the way %T's short form could.
func typeKey(t reflect.Type) string {
	star := ""
	if t.Kind() == reflect.Pointer {
		star, t = "*", t.Elem()
	}
	return star + t.PkgPath() + "." + t.Name()
}

// newBinaryCodec assigns tags 1..n over the marshallable registry
// snapshot (tag 0 is reserved for nil).
func newBinaryCodec() (Codec, error) {
	type cand struct {
		key   string
		proto WireMessage
	}
	var cands []cand
	for _, v := range WireTypes() {
		if m, ok := v.(WireMessage); ok {
			cands = append(cands, cand{key: typeKey(reflect.TypeOf(v)), proto: m})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].key < cands[j].key })
	if len(cands) > 255 {
		return nil, fmt.Errorf("runtime: %d binary wire types exceed the one-byte tag space", len(cands))
	}
	c := &binaryCodec{byType: make(map[reflect.Type]byte, len(cands))}
	c.writers.New = func() any { return new(WireWriter) }
	c.readers.New = func() any { return new(WireReader) }
	for i, cd := range cands {
		t := reflect.TypeOf(cd.proto)
		if _, dup := c.byType[t]; dup {
			continue // same type registered twice; first tag wins
		}
		c.byType[t] = byte(i + 1)
		c.protos = append(c.protos, cd.proto)
	}
	return c, nil
}

func (c *binaryCodec) Name() string { return "binary" }

func (c *binaryCodec) AppendMessage(buf []byte, msg any) ([]byte, error) {
	w := c.writers.Get().(*WireWriter)
	*w = WireWriter{buf: buf, codec: c}
	c.appendAny(w, msg)
	buf, err := w.buf, w.err
	w.buf = nil
	c.writers.Put(w)
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// appendAny appends one tagged value — tag 0 for nil — to w; nested
// interface-typed fields come back here through WireWriter.Any.
func (c *binaryCodec) appendAny(w *WireWriter, msg any) {
	if msg == nil {
		w.U8(0)
		return
	}
	tag, ok := c.byType[reflect.TypeOf(msg)]
	if !ok {
		w.Fail(fmt.Errorf("runtime: %T is not binary-marshallable — implement runtime.WireMessage next to its RegisterWireType call", msg))
		return
	}
	w.U8(tag)
	msg.(WireMessage).AppendWire(w)
}

func (c *binaryCodec) DecodeMessage(b []byte) (any, error) {
	r := c.readers.Get().(*WireReader)
	*r = WireReader{buf: b, codec: c}
	v := r.Any()
	rest, err := r.Len(), r.err
	r.buf = nil
	c.readers.Put(r)
	if err != nil {
		return nil, err
	}
	if rest != 0 {
		return nil, fmt.Errorf("runtime: %d trailing bytes after message", rest)
	}
	return v, nil
}

// decodeAny reads one tagged value; WireReader.Any handles the depth
// guard and error stickiness around it.
func (c *binaryCodec) decodeAny(r *WireReader) (any, error) {
	tag := r.U8()
	if r.err != nil {
		return nil, r.err
	}
	if tag == 0 {
		return nil, nil
	}
	if int(tag) > len(c.protos) {
		return nil, fmt.Errorf("runtime: unknown wire type tag %d", tag)
	}
	v := c.protos[tag-1].DecodeWire(r)
	if r.err != nil {
		return nil, r.err
	}
	return v, nil
}
