package runtime

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// This file is the append-based encoding vocabulary the binary wire
// codec and its per-type marshallers share: a WireWriter that appends
// primitives to a growing byte slice, and a WireReader that decodes
// them back with sticky-error semantics. The encoding is canonical —
// minimal varints, fixed-width floats, sorted map keys enforced by the
// strictly-ascending decode helpers — so any accepted byte stream
// re-encodes to exactly the same bytes. That property is what lets the
// fuzz targets assert byte-identical round trips instead of weaker
// structural equality.

// AppendUvarint appends v in minimal (canonical) varint form.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// uvarintLen returns the canonical encoded length of v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// zigzag maps signed to unsigned so small negatives stay short.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// WireWriter appends one message's canonical binary encoding. The
// zero value is not usable; codecs construct writers bound to
// themselves so nested interface-typed fields can be tagged.
type WireWriter struct {
	buf []byte
	// codec tags and encodes nested interface-typed values; set by the
	// binary codec.
	codec *binaryCodec
	err   error
}

// NewWireWriter wraps buf for appending. Writers built this way append
// primitives only; Any needs a codec-bound writer.
func NewWireWriter(buf []byte) *WireWriter { return &WireWriter{buf: buf} }

// Finish returns the accumulated encoding.
func (w *WireWriter) Finish() []byte { return w.buf }

// Fail records the first error; subsequent appends are no-ops.
func (w *WireWriter) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Err returns the first recorded error.
func (w *WireWriter) Err() error { return w.err }

// Uvarint appends an unsigned varint.
func (w *WireWriter) Uvarint(v uint64) {
	if w.err != nil {
		return
	}
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Varint appends a signed (zigzag) varint.
func (w *WireWriter) Varint(v int64) { w.Uvarint(zigzag(v)) }

// Int appends an int as a signed varint.
func (w *WireWriter) Int(v int) { w.Varint(int64(v)) }

// U8 appends one raw byte.
func (w *WireWriter) U8(v byte) {
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, v)
}

// U64 appends a fixed 8-byte big-endian word — the right shape for
// hashed ring identifiers, which are uniform over 64 bits and would
// cost 10 bytes as a varint.
func (w *WireWriter) U64(v uint64) {
	if w.err != nil {
		return
	}
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// F64 appends a float64 as its fixed 8-byte IEEE 754 bit pattern.
func (w *WireWriter) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends a 0/1 byte.
func (w *WireWriter) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// String appends a length-prefixed string.
func (w *WireWriter) String(s string) {
	w.Uvarint(uint64(len(s)))
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, s...)
}

// Bytes appends a length-prefixed byte slice.
func (w *WireWriter) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, b...)
}

// Node appends a NodeID as a signed varint (None = -1 stays one byte).
func (w *WireWriter) Node(id NodeID) { w.Varint(int64(id)) }

// Nodes appends a length-prefixed NodeID slice.
func (w *WireWriter) Nodes(ns []NodeID) {
	w.Uvarint(uint64(len(ns)))
	for _, id := range ns {
		w.Node(id)
	}
}

// Any appends a nested interface-typed value: a type tag plus the
// value's own encoding (tag 0 for nil). Only writers constructed by
// the binary codec support it.
func (w *WireWriter) Any(msg any) {
	if w.err != nil {
		return
	}
	if w.codec == nil {
		w.Fail(errors.New("runtime: WireWriter.Any outside a codec"))
		return
	}
	w.codec.appendAny(w, msg)
}

// maxAnyDepth bounds nested Any decoding so hostile bytes cannot
// recurse the decoder off the stack.
const maxAnyDepth = 32

// WireReader decodes the WireWriter encoding with sticky errors: the
// first failure poisons the reader and every subsequent read returns
// the zero value, so per-type decoders stay branch-free and check
// Err once at the end. All reads are bounds-checked; decoded values
// never alias the input buffer.
type WireReader struct {
	buf []byte
	pos int
	// codec decodes nested tagged values; set by the binary codec.
	codec *binaryCodec
	depth int
	err   error
}

// NewWireReader wraps b for decoding. Readers built this way decode
// primitives only; Any needs a codec-bound reader.
func NewWireReader(b []byte) *WireReader { return &WireReader{buf: b} }

// Fail records the first error.
func (r *WireReader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Err returns the first recorded error.
func (r *WireReader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *WireReader) Len() int { return len(r.buf) - r.pos }

// Rest returns the unread remainder and consumes it.
func (r *WireReader) Rest() []byte {
	out := r.buf[r.pos:]
	r.pos = len(r.buf)
	return out
}

// Uvarint reads a canonical unsigned varint; non-minimal encodings are
// rejected so every accepted stream re-encodes byte-identically.
func (r *WireReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.Fail(errors.New("runtime: truncated or overlong varint"))
		return 0
	}
	if n != uvarintLen(v) {
		r.Fail(errors.New("runtime: non-canonical varint"))
		return 0
	}
	r.pos += n
	return v
}

// Varint reads a signed (zigzag) varint.
func (r *WireReader) Varint() int64 { return unzigzag(r.Uvarint()) }

// Int reads an int-sized signed varint.
func (r *WireReader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Fail(errors.New("runtime: varint overflows int"))
		return 0
	}
	return int(v)
}

// U8 reads one raw byte.
func (r *WireReader) U8() byte {
	if r.err != nil {
		return 0
	}
	if r.Len() < 1 {
		r.Fail(errors.New("runtime: truncated byte"))
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

// U64 reads a fixed 8-byte big-endian word.
func (r *WireReader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Len() < 8 {
		r.Fail(errors.New("runtime: truncated u64"))
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

// F64 reads a fixed 8-byte float.
func (r *WireReader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a strict 0/1 byte.
func (r *WireReader) Bool() bool {
	b := r.U8()
	if r.err == nil && b > 1 {
		r.Fail(fmt.Errorf("runtime: bool byte %d", b))
		return false
	}
	return b == 1
}

// String reads a length-prefixed string (copied, never aliased).
func (r *WireReader) String() string {
	n := r.ArrayLen(1)
	if r.err != nil {
		return ""
	}
	s := string(r.buf[r.pos : r.pos+n])
	r.pos += n
	return s
}

// Bytes reads a length-prefixed byte slice (copied, never aliased).
// Zero length yields nil, mirroring gob's zero-field omission.
func (r *WireReader) Bytes() []byte {
	n := r.ArrayLen(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.pos:])
	r.pos += n
	return out
}

// ArrayLen reads a collection length and bounds it against the unread
// bytes (each element costs at least minElemBytes), so hostile length
// prefixes cannot force huge allocations.
func (r *WireReader) ArrayLen(minElemBytes int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n > uint64(r.Len()/minElemBytes) {
		r.Fail(fmt.Errorf("runtime: collection length %d exceeds remaining bytes", n))
		return 0
	}
	return int(n)
}

// Node reads a NodeID, rejecting values outside its 32-bit range.
func (r *WireReader) Node() NodeID {
	v := r.Varint()
	if r.err == nil && (v > math.MaxInt32 || v < math.MinInt32) {
		r.Fail(fmt.Errorf("runtime: node id %d out of range", v))
		return None
	}
	return NodeID(v)
}

// Nodes reads a length-prefixed NodeID slice (nil when empty).
func (r *WireReader) Nodes() []NodeID {
	n := r.ArrayLen(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]NodeID, n)
	for i := range out {
		out[i] = r.Node()
	}
	return out
}

// Any reads a nested tagged value (nil for tag 0). Only readers
// constructed by the binary codec support it.
func (r *WireReader) Any() any {
	if r.err != nil {
		return nil
	}
	if r.codec == nil {
		r.Fail(errors.New("runtime: WireReader.Any outside a codec"))
		return nil
	}
	if r.depth >= maxAnyDepth {
		r.Fail(errors.New("runtime: nested message depth exceeded"))
		return nil
	}
	r.depth++
	v, err := r.codec.decodeAny(r)
	r.depth--
	if err != nil {
		r.Fail(err)
		return nil
	}
	return v
}
