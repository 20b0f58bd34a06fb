package chord

import (
	"flowercdn/internal/ids"
	"flowercdn/internal/runtime"
	"flowercdn/internal/trace"
)

// Binary wire marshallers for the overlay's messages (the
// runtime.WireMessage side of the types registered in chord.go and
// registry.go). Field order mirrors the struct declarations; ring
// identifiers travel as fixed 8-byte words because they are uniform
// hashes and would cost 10 bytes as varints.

// AppendWire appends an Entry: node address plus ring position.
func (e Entry) AppendWire(w *runtime.WireWriter) {
	w.Node(e.Node)
	w.U64(uint64(e.ID))
}

// DecodeEntryWire reads one Entry.
func DecodeEntryWire(r *runtime.WireReader) Entry {
	n := r.Node()
	id := ids.ID(r.U64())
	return Entry{Node: n, ID: id}
}

// AppendEntriesWire appends a length-prefixed Entry slice.
func AppendEntriesWire(w *runtime.WireWriter, es []Entry) {
	w.Uvarint(uint64(len(es)))
	for _, e := range es {
		e.AppendWire(w)
	}
}

// DecodeEntriesWire reads a length-prefixed Entry slice (nil when
// empty). Each entry costs at least nine bytes on the wire.
func DecodeEntriesWire(r *runtime.WireReader) []Entry {
	n := r.ArrayLen(9)
	if r.Err() != nil || n == 0 {
		return nil
	}
	out := make([]Entry, n)
	for i := range out {
		out[i] = DecodeEntryWire(r)
	}
	return out
}

func (m *routeMsg) AppendWire(w *runtime.WireWriter) {
	w.U64(uint64(m.Key))
	w.Any(m.Payload)
	w.Uvarint(m.ReqID)
	w.Node(m.Origin)
	w.Int(m.Hops)
	w.Bool(m.Deliver)
	w.Bool(m.Traced)
	trace.AppendHopsWire(w, m.Path)
	w.Bool(m.Reply)
	m.Owner.AppendWire(w)
}

// DecodeWire returns a *routeMsg, matching the registered pointer type.
func (*routeMsg) DecodeWire(r *runtime.WireReader) any {
	m := new(routeMsg)
	m.Key = ids.ID(r.U64())
	m.Payload = r.Any()
	m.ReqID = r.Uvarint()
	m.Origin = r.Node()
	m.Hops = r.Int()
	m.Deliver = r.Bool()
	m.Traced = r.Bool()
	m.Path = trace.DecodeHopsWire(r)
	m.Reply = r.Bool()
	m.Owner = DecodeEntryWire(r)
	return m
}

func (m notifyMsg) AppendWire(w *runtime.WireWriter) { m.From.AppendWire(w) }

func (notifyMsg) DecodeWire(r *runtime.WireReader) any {
	return notifyMsg{From: DecodeEntryWire(r)}
}

func (neighborsReq) AppendWire(*runtime.WireWriter) {}

func (neighborsReq) DecodeWire(*runtime.WireReader) any { return neighborsReq{} }

func (m *neighborsResp) AppendWire(w *runtime.WireWriter) {
	m.Pred.AppendWire(w)
	AppendEntriesWire(w, m.Succs)
}

// DecodeWire returns a *neighborsResp, matching the registered pointer
// type; the prober lists it in its own pool once read.
func (*neighborsResp) DecodeWire(r *runtime.WireReader) any {
	m := new(neighborsResp)
	m.Pred = DecodeEntryWire(r)
	m.Succs = DecodeEntriesWire(r)
	return m
}

func (pingReq) AppendWire(*runtime.WireWriter) {}

func (pingReq) DecodeWire(*runtime.WireReader) any { return pingReq{} }

func (pingResp) AppendWire(*runtime.WireWriter) {}

func (pingResp) DecodeWire(*runtime.WireReader) any { return pingResp{} }

func (m claimReq) AppendWire(w *runtime.WireWriter) {
	w.U64(uint64(m.Pos))
	m.Claimant.AppendWire(w)
}

func (claimReq) DecodeWire(r *runtime.WireReader) any {
	var m claimReq
	m.Pos = ids.ID(r.U64())
	m.Claimant = DecodeEntryWire(r)
	return m
}

func (m claimResp) AppendWire(w *runtime.WireWriter) {
	w.Bool(m.Granted)
	m.Current.AppendWire(w)
}

func (claimResp) DecodeWire(r *runtime.WireReader) any {
	var m claimResp
	m.Granted = r.Bool()
	m.Current = DecodeEntryWire(r)
	return m
}

func (m claimTransfer) AppendWire(w *runtime.WireWriter) {
	w.U64(uint64(m.Pos))
	m.Claimant.AppendWire(w)
}

func (claimTransfer) DecodeWire(r *runtime.WireReader) any {
	var m claimTransfer
	m.Pos = ids.ID(r.U64())
	m.Claimant = DecodeEntryWire(r)
	return m
}

func (m GatewayAnnounce) AppendWire(w *runtime.WireWriter) { m.E.AppendWire(w) }

func (GatewayAnnounce) DecodeWire(r *runtime.WireReader) any {
	return GatewayAnnounce{E: DecodeEntryWire(r)}
}

func (m GatewayRetract) AppendWire(w *runtime.WireWriter) { w.Node(m.Node) }

func (GatewayRetract) DecodeWire(r *runtime.WireReader) any {
	return GatewayRetract{Node: r.Node()}
}
