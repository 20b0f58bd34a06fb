package gossip

import (
	"flowercdn/internal/runtime"
	"fmt"
	"math"
)

// Binary wire marshallers for the shuffle RPC. Entry metadata is
// interface-typed (application summaries), so it rides through the
// codec's Any tagging; the entry encoding is exported because
// applications embed gossip entries in their own messages (flower's
// view seeds).

// AppendWire appends one view entry.
func (e Entry) AppendWire(w *runtime.WireWriter) {
	w.Node(e.Peer)
	w.Int(int(e.Age))
	w.Any(e.Meta)
}

// DecodeEntryWire reads one view entry. An age outside [0, MaxInt32]
// fails the reader rather than truncate.
func DecodeEntryWire(r *runtime.WireReader) Entry {
	var e Entry
	e.Peer = r.Node()
	if age := r.Varint(); r.Err() == nil && (age < 0 || age > math.MaxInt32) {
		r.Fail(fmt.Errorf("gossip: entry age %d out of range", age))
	} else {
		e.Age = int32(age)
	}
	e.Meta = r.Any()
	return e
}

// AppendEntriesWire appends a length-prefixed entry slice.
func AppendEntriesWire(w *runtime.WireWriter, es []Entry) {
	w.Uvarint(uint64(len(es)))
	for _, e := range es {
		e.AppendWire(w)
	}
}

// DecodeEntriesWire reads a length-prefixed entry slice (nil when
// empty). Each entry costs at least three bytes on the wire.
func DecodeEntriesWire(r *runtime.WireReader) []Entry {
	n := r.ArrayLen(3)
	if r.Err() != nil || n == 0 {
		return nil
	}
	out := make([]Entry, n)
	for i := range out {
		out[i] = DecodeEntryWire(r)
	}
	return out
}

func (m shuffleReq) AppendWire(w *runtime.WireWriter) {
	w.Node(m.From)
	AppendEntriesWire(w, m.Entries)
}

func (shuffleReq) DecodeWire(r *runtime.WireReader) any {
	var m shuffleReq
	m.From = r.Node()
	m.Entries = DecodeEntriesWire(r)
	return m
}

func (m shuffleResp) AppendWire(w *runtime.WireWriter) {
	AppendEntriesWire(w, m.Entries)
}

func (shuffleResp) DecodeWire(r *runtime.WireReader) any {
	return shuffleResp{Entries: DecodeEntriesWire(r)}
}
