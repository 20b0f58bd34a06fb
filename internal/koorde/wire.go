package koorde

import (
	"flowercdn/internal/ids"
	"flowercdn/internal/runtime"
	"flowercdn/internal/trace"
)

// Binary wire marshaller for the de Bruijn route message.

func (m dbRouteMsg) AppendWire(w *runtime.WireWriter) {
	w.U64(uint64(m.Key))
	w.U64(uint64(m.I))
	w.U64(m.KShift)
	w.Int(m.BitsLeft)
	w.Any(m.Payload)
	w.Node(m.Origin)
	w.Int(m.Hops)
	w.Bool(m.Deliver)
	w.Bool(m.Traced)
	trace.AppendHopsWire(w, m.Path)
}

func (dbRouteMsg) DecodeWire(r *runtime.WireReader) any {
	var m dbRouteMsg
	m.Key = ids.ID(r.U64())
	m.I = ids.ID(r.U64())
	m.KShift = r.U64()
	m.BitsLeft = r.Int()
	m.Payload = r.Any()
	m.Origin = r.Node()
	m.Hops = r.Int()
	m.Deliver = r.Bool()
	m.Traced = r.Bool()
	m.Path = trace.DecodeHopsWire(r)
	return m
}
