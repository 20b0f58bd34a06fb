package flower

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"flowercdn/internal/chord"
	"flowercdn/internal/content"
	"flowercdn/internal/gossip"
	"flowercdn/internal/ids"
	"flowercdn/internal/runtime"
	"flowercdn/internal/trace"
)

// Binary wire marshallers for every flower message registered in
// driver.go but exactSummary, whose are in exactsummary.go. The
// directory index, a map, is encoded with sorted keys and decoded
// enforcing strictly ascending order, as an exact summary is, so the
// encoding stays canonical — any accepted byte stream re-encodes to
// exactly the same bytes.

func appendSite(w *runtime.WireWriter, s content.SiteID) { w.Varint(int64(s)) }

func decodeSite(r *runtime.WireReader) content.SiteID {
	v := r.Varint()
	if r.Err() == nil && (v > math.MaxInt32 || v < math.MinInt32) {
		r.Fail(fmt.Errorf("flower: site id %d out of range", v))
		return 0
	}
	return content.SiteID(v)
}

func (m clientQueryMsg) AppendWire(w *runtime.WireWriter) {
	w.Uvarint(m.Seq)
	m.Key.AppendWire(w)
	w.Node(m.Client)
	appendSite(w, m.Site)
	w.Int(int(m.Loc))
	w.Bool(m.JoinOnly)
	w.Int(m.Scanned)
	trace.AppendHopsWire(w, m.Path)
}

func (clientQueryMsg) DecodeWire(r *runtime.WireReader) any {
	var m clientQueryMsg
	m.Seq = r.Uvarint()
	m.Key = content.DecodeKeyWire(r)
	m.Client = r.Node()
	m.Site = decodeSite(r)
	m.Loc = runtime.Locality(r.Int())
	m.JoinOnly = r.Bool()
	m.Scanned = r.Int()
	m.Path = trace.DecodeHopsWire(r)
	return m
}

func (m dirQueryResp) AppendWire(w *runtime.WireWriter) {
	w.Uvarint(m.Seq)
	w.Nodes(m.Providers)
	w.Bool(m.FromSummary)
	m.Dir.AppendWire(w)
	gossip.AppendEntriesWire(w, m.Seed)
	chord.AppendEntriesWire(w, m.CollabWith)
	trace.AppendHopsWire(w, m.Path)
}

func (dirQueryResp) DecodeWire(r *runtime.WireReader) any {
	var m dirQueryResp
	m.Seq = r.Uvarint()
	m.Providers = r.Nodes()
	m.FromSummary = r.Bool()
	m.Dir = chord.DecodeEntryWire(r)
	m.Seed = gossip.DecodeEntriesWire(r)
	m.CollabWith = chord.DecodeEntriesWire(r)
	m.Path = trace.DecodeHopsWire(r)
	return m
}

func (m vacantResp) AppendWire(w *runtime.WireWriter) {
	w.Uvarint(m.Seq)
	w.U64(uint64(m.Pos))
}

func (vacantResp) DecodeWire(r *runtime.WireReader) any {
	var m vacantResp
	m.Seq = r.Uvarint()
	m.Pos = ids.ID(r.U64())
	return m
}

func (m dirQueryReq) AppendWire(w *runtime.WireWriter) {
	m.Key.AppendWire(w)
	w.Node(m.Client)
	w.Bool(m.Foreign)
}

func (dirQueryReq) DecodeWire(r *runtime.WireReader) any {
	var m dirQueryReq
	m.Key = content.DecodeKeyWire(r)
	m.Client = r.Node()
	m.Foreign = r.Bool()
	return m
}

func (m dirQueryReply) AppendWire(w *runtime.WireWriter) {
	w.Nodes(m.Providers())
	w.Bool(m.FromSummary())
	chord.AppendEntriesWire(w, m.CollabWith())
}

// DecodeWire refuses a reply naming more than maxProviders providers,
// which no directory sends and the record cannot hold.
func (dirQueryReply) DecodeWire(r *runtime.WireReader) any {
	n := r.ArrayLen(1)
	if n > maxProviders {
		r.Fail(fmt.Errorf("flower: directory reply names %d providers, more than %d", n, maxProviders))
		return dirQueryReply{}
	}
	var providers [maxProviders]runtime.NodeID
	for i := range n {
		providers[i] = r.Node()
	}
	fromSummary := r.Bool()
	return newDirQueryReply(providers[:n], fromSummary, chord.DecodeEntriesWire(r))
}

// GobEncode implements gob.GobEncoder: the wire form.
func (m dirQueryReply) GobEncode() ([]byte, error) {
	w := runtime.NewWireWriter(nil)
	m.AppendWire(w)
	return w.Finish(), w.Err()
}

// GobDecode implements gob.GobDecoder.
func (m *dirQueryReply) GobDecode(b []byte) error {
	r := runtime.NewWireReader(b)
	d := m.DecodeWire(r).(dirQueryReply)
	switch {
	case r.Err() != nil:
		return r.Err()
	case r.Len() != 0:
		return fmt.Errorf("flower: %d trailing bytes after a directory reply", r.Len())
	}
	*m = d
	return nil
}

func (m keepaliveReq) AppendWire(w *runtime.WireWriter) {
	appendSite(w, m.Site)
	w.Int(int(m.Loc))
}

func (keepaliveReq) DecodeWire(r *runtime.WireReader) any {
	var m keepaliveReq
	m.Site = decodeSite(r)
	m.Loc = runtime.Locality(r.Int())
	return m
}

func (keepaliveResp) AppendWire(*runtime.WireWriter) {}

func (keepaliveResp) DecodeWire(*runtime.WireReader) any { return keepaliveResp{} }

func (m pushReq) AppendWire(w *runtime.WireWriter) {
	appendSite(w, m.Site)
	w.Int(int(m.Loc))
	content.AppendKeysWire(w, m.Keys)
}

func (pushReq) DecodeWire(r *runtime.WireReader) any {
	var m pushReq
	m.Site = decodeSite(r)
	m.Loc = runtime.Locality(r.Int())
	m.Keys = content.DecodeKeysWire(r)
	return m
}

func (pushResp) AppendWire(*runtime.WireWriter) {}

func (pushResp) DecodeWire(*runtime.WireReader) any { return pushResp{} }

func (m deadProviderReport) AppendWire(w *runtime.WireWriter) { w.Node(m.Dead) }

func (deadProviderReport) DecodeWire(r *runtime.WireReader) any {
	return deadProviderReport{Dead: r.Node()}
}

func (m promoteMsg) AppendWire(w *runtime.WireWriter) { w.U64(uint64(m.Pos)) }

func (promoteMsg) DecodeWire(r *runtime.WireReader) any {
	return promoteMsg{Pos: ids.ID(r.U64())}
}

func (m promotedMsg) AppendWire(w *runtime.WireWriter) { m.NewDir.AppendWire(w) }

func (promotedMsg) DecodeWire(r *runtime.WireReader) any {
	return promotedMsg{NewDir: chord.DecodeEntryWire(r)}
}

// byPackedKey orders keys as content.Store does: by (site, object).
func byPackedKey(a, b content.Key) int { return cmp.Compare(a.Uint64(), b.Uint64()) }

func (m handoffMsg) AppendWire(w *runtime.WireWriter) {
	w.U64(uint64(m.Pos))
	keys := make([]content.Key, 0, len(m.Index))
	for k := range m.Index {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, byPackedKey)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		k.AppendWire(w)
		w.Nodes(m.Index[k])
	}
	w.Nodes(m.Members)
}

func (handoffMsg) DecodeWire(r *runtime.WireReader) any {
	var m handoffMsg
	m.Pos = ids.ID(r.U64())
	n := r.ArrayLen(3)
	if r.Err() == nil && n > 0 {
		m.Index = make(map[content.Key][]runtime.NodeID, n)
		var prev uint64
		for i := 0; i < n; i++ {
			k := content.DecodeKeyWire(r)
			if r.Err() != nil {
				break
			}
			if u := k.Uint64(); i > 0 && u <= prev {
				r.Fail(fmt.Errorf("flower: handoff index keys out of order"))
				break
			} else {
				prev = u
			}
			m.Index[k] = r.Nodes()
		}
	}
	m.Members = r.Nodes()
	return m
}

func (m ContactMeta) AppendWire(w *runtime.WireWriter) {
	w.Any(m.Summary)
	w.U64(uint64(m.Dir.Pos))
	w.Node(m.Dir.Node)
	w.Int(m.Dir.Age)
}

func (ContactMeta) DecodeWire(r *runtime.WireReader) any {
	var m ContactMeta
	if v := r.Any(); v != nil {
		sp, ok := v.(SummaryProvider)
		if !ok {
			r.Fail(fmt.Errorf("flower: contact summary %T is not a SummaryProvider", v))
			return m
		}
		m.Summary = sp
	}
	m.Dir.Pos = ids.ID(r.U64())
	m.Dir.Node = r.Node()
	m.Dir.Age = r.Int()
	return m
}
