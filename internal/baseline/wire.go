package baseline

import (
	"flowercdn/internal/content"
	"flowercdn/internal/runtime"
	"flowercdn/internal/trace"
)

// Binary wire marshallers for the ring-directory deployment's messages.

func (m query) AppendWire(w *runtime.WireWriter) {
	w.Uvarint(m.Seq)
	m.Key.AppendWire(w)
	w.Node(m.Client)
}

func (query) DecodeWire(r *runtime.WireReader) any {
	var m query
	m.Seq = r.Uvarint()
	m.Key = content.DecodeKeyWire(r)
	m.Client = r.Node()
	return m
}

func (m homeResp) AppendWire(w *runtime.WireWriter) {
	w.Uvarint(m.Seq)
	w.Nodes(m.Providers)
	trace.AppendHopsWire(w, m.Path)
}

func (homeResp) DecodeWire(r *runtime.WireReader) any {
	var m homeResp
	m.Seq = r.Uvarint()
	m.Providers = r.Nodes()
	m.Path = trace.DecodeHopsWire(r)
	return m
}

func (m summary) AppendWire(w *runtime.WireWriter) {
	w.Node(m.Node)
	content.AppendKeysWire(w, m.Keys)
}

func (summary) DecodeWire(r *runtime.WireReader) any {
	var m summary
	m.Node = r.Node()
	m.Keys = content.DecodeKeysWire(r)
	return m
}
