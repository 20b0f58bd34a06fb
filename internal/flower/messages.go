package flower

import (
	"flowercdn/internal/chord"
	"flowercdn/internal/content"
	"flowercdn/internal/gossip"
	"flowercdn/internal/ids"
	"flowercdn/internal/runtime"
	"flowercdn/internal/topology"
	"flowercdn/internal/trace"
)

// DirInfo is the record every content peer keeps about its directory
// peer (paper Sec. 5.1): the D-ring position, the node currently
// holding it, and an age incremented each keepalive period and reset on
// contact. When two content peers gossip, dir-infos for the same
// position are reconciled by keeping the smaller age — that is how news
// of a replaced directory spreads through a petal.
type DirInfo struct {
	Pos  ids.ID
	Node runtime.NodeID
	Age  int
}

// Valid reports whether the record points at a node.
func (d DirInfo) Valid() bool { return d.Node != runtime.None }

// Fresher reports whether d should replace cur: same position and
// strictly smaller age (Sec. 5.1's reconciliation rule). Any valid
// record beats an invalidated one for the same position, which is how
// an orphaned content peer re-learns its petal's directory via gossip.
func (d DirInfo) Fresher(cur DirInfo) bool {
	if !d.Valid() || d.Pos != cur.Pos {
		return false
	}
	if !cur.Valid() {
		return true
	}
	return d.Age < cur.Age
}

// ContactMeta is the per-contact metadata petal gossip carries: the
// contact's content summary and its view of the directory.
type ContactMeta struct {
	Summary SummaryProvider
	Dir     DirInfo
}

// SummaryProvider abstracts Bloom summaries so the ablation bench can
// swap in exact sets.
type SummaryProvider interface {
	Contains(key uint64) bool
	SizeBytes() int
}

// ---- client <-> directory messages ----

// clientQueryMsg is the query a new client routes over D-ring to the
// directory position of its (site, locality) petal. JoinOnly marks the
// arrival of a peer for a non-active website, which just wants petal
// membership ("simply added to its petal upon its arrival").
type clientQueryMsg struct {
	Seq      uint64
	Key      content.Key
	Client   runtime.NodeID
	Site     content.SiteID
	Loc      topology.Locality
	JoinOnly bool
	// Scanned counts the PetalUp directory instances this query has
	// visited (Sec. 4's sequential scan).
	Scanned int
	// Path carries trace hops accumulated on the directory side (scan
	// forwards between PetalUp instances); empty when tracing is off.
	Path []trace.Hop
}

// dirQueryResp answers a routed clientQueryMsg directly to the client.
type dirQueryResp struct {
	Seq       uint64
	Providers []runtime.NodeID
	// FromSummary marks providers recovered from a freshly promoted
	// directory's old gossip summaries rather than its index.
	FromSummary bool
	// Dir is the responding directory's identity; the client adopts it.
	Dir chord.Entry
	// Seed is a view bootstrap: a subset of the directory's member view
	// (Sec. 4: a new instance "provides them with a subset of its old
	// view so that they initialize their view of the petal").
	Seed []gossip.Entry
	// CollabWith lists same-website directory peers (ring neighbours by
	// key construction) worth asking when the local petal cannot serve
	// the object (Sec. 3.2: "directory peers of the same website ws may
	// collaborate to provide content of ws").
	CollabWith []chord.Entry
	// Path is the traced directory-side hop segment (ring route + scan
	// forwards + the answering directory); empty when tracing is off.
	// Trace hops do not count toward the modeled response size.
	Path []trace.Hop
}

func (r dirQueryResp) WireBytes() int { return 64 + len(r.Providers)*8 + len(r.Seed)*192 }

// vacantResp tells a client that the directory position its query was
// routed to is vacant; the client may claim it (join case 2 of
// Sec. 5.2.2).
type vacantResp struct {
	Seq uint64
	Pos ids.ID
}

// ---- content peer <-> directory RPCs ----

// dirQueryReq is a content peer's query to its own directory peer.
// Foreign marks a collaboration probe from another petal's client,
// which must not be admitted to this directory's member view.
type dirQueryReq struct {
	Key     content.Key
	Client  runtime.NodeID
	Foreign bool
}

// dirQueryReply answers dirQueryReq. Like exactSummary it is one
// pointer to its record, so the transport boxes it without allocating:
// a reply costs its record alone, the providers inline. The zero value
// is the empty answer — no providers, no siblings — and every empty
// answer is the zero value (newDirQueryReply), so it costs nothing and
// decodes back to what was sent. The type's name fixes its binary codec
// tag.
type dirQueryReply struct{ a *dirAnswer }

type dirAnswer struct {
	providers   [maxProviders]runtime.NodeID
	n           uint8
	fromSummary bool
	collabWith  []chord.Entry
}

// newDirQueryReply makes the reply naming providers, at most
// maxProviders of them, which it copies.
func newDirQueryReply(providers []runtime.NodeID, fromSummary bool, collabWith []chord.Entry) dirQueryReply {
	if len(providers) == 0 && !fromSummary && len(collabWith) == 0 {
		return dirQueryReply{}
	}
	a := &dirAnswer{fromSummary: fromSummary, collabWith: collabWith}
	a.n = uint8(copy(a.providers[:], providers))
	return dirQueryReply{a}
}

// Providers returns the providers, nearest to the asker first. The
// slice is the reply's: read it, never write or keep it.
func (r dirQueryReply) Providers() []runtime.NodeID {
	if r.a == nil {
		return nil
	}
	return r.a.providers[:r.a.n]
}

// FromSummary reports whether the providers came from a freshly
// promoted directory's old gossip summaries rather than its index.
func (r dirQueryReply) FromSummary() bool { return r.a != nil && r.a.fromSummary }

// CollabWith returns the sibling directories worth asking when the
// reply names no provider; the slice is the reply's, only ever read.
func (r dirQueryReply) CollabWith() []chord.Entry {
	if r.a == nil {
		return nil
	}
	return r.a.collabWith
}

// keepaliveReq is the periodic liveness signal from a content peer to
// its directory (Sec. 5.1); the directory uses it to expire dead
// members from its view and index.
type keepaliveReq struct {
	Site content.SiteID
	Loc  topology.Locality
}

type keepaliveResp struct{}

// pushReq carries the delta of a content peer's stored content to its
// directory, sent "whenever the percentage of its changes reaches a
// threshold".
type pushReq struct {
	Site content.SiteID
	Loc  topology.Locality
	Keys []content.Key
}

func (p pushReq) WireBytes() int { return 32 + len(p.Keys)*8 }

type pushResp struct{}

// deadProviderReport tells a directory that a redirect target did not
// answer, so it can expunge the stale pointer without waiting for the
// keepalive TTL.
type deadProviderReport struct {
	Dead runtime.NodeID
}

// ---- PetalUp promotion ----

// promoteMsg asks a content peer to join D-ring as directory instance
// Pos for its petal (Sec. 4: when all existing instances are
// overloaded, the final one "selects from its view the content peer to
// join D-ring as d^{i+1}").
type promoteMsg struct {
	Pos ids.ID
}

// promotedMsg notifies the old directory that the promotion succeeded,
// so it removes the promotee from its index ("the replacing content
// peer is then removed from the directory-index").
type promotedMsg struct {
	NewDir chord.Entry
}

// ---- handoff (voluntary leave, Sec. 5.2.2) ----

// handoffMsg transfers a leaving directory's view and directory-index
// to its replacement ("if the previous d had voluntarily left, it would
// have transferred a copy of its view and directory-index").
type handoffMsg struct {
	Pos     ids.ID
	Index   map[content.Key][]runtime.NodeID
	Members []runtime.NodeID
}

func (h handoffMsg) WireBytes() int {
	n := 32 + len(h.Members)*8
	for _, ps := range h.Index {
		n += 8 + len(ps)*8
	}
	return n
}
