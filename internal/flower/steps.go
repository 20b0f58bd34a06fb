package flower

import (
	"flowercdn/internal/content"
	"flowercdn/internal/runtime"
)

// step is the pooled callback record of one RPC a query makes — a fetch
// probe of a candidate provider, the question to the peer's directory,
// the question to a sibling directory, or the origin fetch after a miss
// — or of one exchange that checks the directory is alive: a keepalive,
// a confirming probe or a push. Like simnet's rpcState and chord's probe
// it binds the callback it hands the transport once, when the record is
// made, and says through kind what the answer is for.
//
// Step state lives here and not in activeQuery because two chains of
// steps can run on one query at once: a routed query that was retried
// may be answered twice under one Seq, and each answer starts probing.
// Each RPC in flight therefore owns a record; the query only holds what
// the chains share (the candidate list and its cursor).
//
// Records are kept on the System, not the Peer: a free list per peer
// would cost every one of a big cell's peers a slice header for a
// record it holds for a few hundred milliseconds a minute. A record
// whose requester died is never answered (Net.Request) and is
// left to the collector with its peer.
type step struct {
	p    *Peer
	q    *activeQuery
	seq  uint64
	key  content.Key    // stepOriginFetch: the object to store
	req  any            // stepCollab: the boxed request, reused for the next sibling
	node runtime.NodeID // the peer asked
	kind stepKind
	// gossipPath (stepProbe) says which fallback follows the candidates.
	gossipPath bool
	onDone     func(resp any, err error)
}

type stepKind uint8

const (
	stepProbe       stepKind = iota // probeCandidate: FetchReq to a provider
	stepDirectory                   // directoryQuery: dirQueryReq to the peer's directory
	stepCollab                      // collabQuery: foreign dirQueryReq to a sibling
	stepOriginFetch                 // resolve: FetchReq to the origin after a miss
	stepKeepalive                   // keepaliveTick, dirContactFailed: keepaliveReq to the directory
	stepPush                        // maybePush: pushReq to the directory, which then holds the store
)

// getStep takes a record for one RPC of p's query q (nil for the origin
// fetch, which outlives its query, and for a directory exchange) to
// node.
func (s *System) getStep(kind stepKind, p *Peer, q *activeQuery, node runtime.NodeID) *step {
	var st *step
	if n := len(s.freeSteps); n > 0 {
		st = s.freeSteps[n-1]
		s.freeSteps = s.freeSteps[:n-1]
	} else {
		st = &step{}
		st.onDone = st.done
	}
	st.kind, st.p, st.q, st.node = kind, p, q, node
	if q != nil {
		st.seq = q.seq
	}
	return st
}

// done is the transport's callback. The record goes back on the free
// list before the answer is handled, so the step the answer starts can
// take it again; the handlers check the query guards (peer alive, still
// this record, still this seq) exactly as the closures they replace did.
func (st *step) done(resp any, err error) {
	p, q, seq, node, key, req := st.p, st.q, st.seq, st.node, st.key, st.req
	kind, gossipPath := st.kind, st.gossipPath
	st.p, st.q, st.req = nil, nil, nil
	p.sys.freeSteps = append(p.sys.freeSteps, st)
	switch kind {
	case stepProbe:
		p.probed(q, seq, node, gossipPath, resp, err)
	case stepDirectory:
		p.directoryAnswered(q, seq, node, resp, err)
	case stepCollab:
		p.siblingAnswered(q, seq, node, req, resp, err)
	case stepOriginFetch:
		if !p.dead && err == nil {
			p.acquire(key)
		}
	case stepKeepalive, stepPush:
		p.dirAnswered(node, kind == stepPush, err)
	}
}
