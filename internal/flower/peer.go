package flower

import (
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"fmt"

	"flowercdn/internal/chord"
	"flowercdn/internal/content"
	"flowercdn/internal/gossip"
	"flowercdn/internal/ids"
	"flowercdn/internal/topology"
	"flowercdn/internal/workload"
)

// Role describes what a peer currently is.
type Role int

const (
	// RoleClient: arrived, not yet admitted to a petal.
	RoleClient Role = iota
	// RoleContent: member of a petal, serving and querying content.
	RoleContent
	// RoleDirectory: content peer additionally holding a D-ring
	// directory position.
	RoleDirectory
)

func (r Role) String() string {
	switch r {
	case RoleClient:
		return "client"
	case RoleContent:
		return "content"
	case RoleDirectory:
		return "directory"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Peer is one Flower-CDN participant. It implements runtime.Handler and
// dispatches to its Chord, gossip and protocol components.
//
// What every session creates lives inside the Peer: its gossip state
// and the stream it draws from, and its query record. A spawn allocates
// the Peer, and the sub-states only some sessions need — the D-ring
// node and lookup client, the directory state — stay behind pointers.
// A big cell holds tens of thousands of peers: the struct is held to
// the 480-byte size class (peer_test.go).
type Peer struct {
	sys *System
	// rng is the individual's workload stream (proto.Identity.Work): a
	// non-active client's membership request draws from it, not sys.rng.
	rng *rnd.RNG
	// nid and site share a word.
	nid  runtime.NodeID
	site content.SiteID
	loc  topology.Locality
	// petalPos is the D-ring position of the petal's first directory
	// instance, dring.Position(site, loc, 0): where routed queries and
	// vacancy claims go, and — through its site prefix — how sibling
	// directories are recognised. Hashed once, at spawn.
	petalPos ids.ID

	role  Role
	store *content.Store

	// gsp is the peer's petal gossip, built in place (initGossip), and
	// gspRNG the protocol stream it draws from, split for this session.
	gsp     gossip.Protocol
	gspRNG  rnd.RNG
	dirInfo DirInfo

	// Directory role state (nil unless RoleDirectory).
	dir       *directoryState
	chordNode *chord.Node

	// Client-mode D-ring access.
	chordClient *chord.Client

	// Active query state machine (a peer has at most one outstanding
	// query: the mean think time of 6 minutes dwarfs resolution time).
	query *activeQuery
	// qspare recycles the previous activeQuery: a query fires every few
	// simulated minutes on every active peer, so per-query allocations
	// add up across a whole run. It starts out as qrec, the peer's own
	// record, which every session's first query or membership request
	// takes: one record serves the whole session.
	qspare *activeQuery
	qrec   activeQuery

	keepaliveTimer runtime.Ticker
	dead           bool
	replacing      bool // a directory-replacement attempt is in flight
	seating        bool // a seed still claiming its seat: not yet on D-ring
	// lastDeadDir remembers the most recently detected dead directory so
	// stale gossip cannot re-install a pointer to it.
	lastDeadDir runtime.NodeID
	// dirMisses counts consecutive failed directory exchanges; the
	// replacement protocol starts only after a confirming probe also
	// fails (one lost message is not death).
	dirMisses int
	// syncedDir is the directory node that holds our full store in its
	// index. When dir-info moves to a different node (replacement,
	// promotion, adoption), the next push ships the whole store — the
	// Sec. 5.2.2 reconstruction: a new directory "gradually constructs
	// its view and directory-index as its content peers discover its
	// join and send it push messages".
	syncedDir runtime.NodeID
}

// NodeID returns the peer's network address.
func (p *Peer) NodeID() runtime.NodeID { return p.nid }

// Role returns the peer's current role.
func (p *Peer) Role() Role { return p.role }

// Site returns the website the peer is interested in.
func (p *Peer) Site() content.SiteID { return p.site }

// Locality returns the peer's physical locality.
func (p *Peer) Locality() topology.Locality { return p.loc }

// Store exposes the local content cache (read-mostly; tests use it).
func (p *Peer) Store() *content.Store { return p.store }

// DirInfo returns the peer's current record of its directory.
func (p *Peer) DirInfo() DirInfo { return p.dirInfo }

// Directory exposes directory-role state, nil for non-directories.
func (p *Peer) Directory() *directoryState { return p.dir }

// Alive reports whether the peer is still running.
func (p *Peer) Alive() bool { return !p.dead }

func (p *Peer) initGossip() {
	p.sys.rng.SplitInto(&p.gspRNG, "gossip")
	if err := p.gsp.Init(p.sys.cfg.Gossip, p.sys.net, &p.gspRNG, p.nid, (*gossipApp)(p)); err != nil {
		panic(fmt.Sprintf("flower: gossip init: %v", err)) // config was validated
	}
	p.dirInfo = DirInfo{Node: runtime.None}
	p.lastDeadDir = runtime.None
	p.syncedDir = runtime.None
}

// startLife begins the arrival behaviour of a client. An active-site
// client joins its petal through its first query; any other requests
// petal membership once its first action is due.
func (p *Peer) startLife() {
	if p.sys.work.Active(p.site) {
		return
	}
	p.eng().Schedule(p.sys.work.FirstQueryDelay(p.rng), func() {
		if !p.dead && p.role == RoleClient {
			p.rejoinPetal()
		}
	}).Release()
}

// Kill implements proto.Session: all components stop, every ticker the
// peer armed is cancelled and the network and the roster drop it —
// after which nothing the deployment holds can reach it (see proto).
func (p *Peer) Kill() {
	if p.dead {
		return
	}
	p.dead = true
	p.sys.peers.Drop()
	p.gsp.Stop()
	if p.chordNode != nil {
		p.chordNode.Stop()
	}
	if p.dir != nil {
		p.dir.stopTickers()
	}
	if p.keepaliveTimer != nil {
		p.keepaliveTimer.Cancel()
	}
	p.query = nil
	// The individual's next session pushes its whole store first
	// (syncedDir starts at None), so the pending delta is garbage.
	p.store.DropDelta()
	p.sys.net.Fail(p.nid)
}

func (p *Peer) eng() runtime.Clock { return p.sys.eng }
func (p *Peer) net() runtime.Net   { return p.sys.net }

// selfEntry returns the peer's ring identity (only meaningful for
// directories).
func (p *Peer) selfEntry() chord.Entry {
	if p.chordNode != nil {
		return p.chordNode.Self()
	}
	return chord.NoEntry
}

// selfMeta builds the descriptor gossip ships about this peer: a fresh
// content summary (Bloom by default, exact sets under the ablation)
// plus the current dir-info.
func (p *Peer) selfMeta() ContactMeta {
	var sum SummaryProvider
	if p.sys.cfg.ExactSummaries {
		set := newExactSummary(p.site)
		for _, k := range p.store.Keys() {
			if set.fits(k) {
				set.add(k)
			}
		}
		sum = set
	} else {
		sum = p.store.Summary()
	}
	return ContactMeta{Summary: sum, Dir: p.dirInfo}
}

// ---- runtime.Handler ----

// HandleMessage dispatches one-way messages to components and protocol
// handlers.
func (p *Peer) HandleMessage(from runtime.NodeID, msg any) {
	if p.dead {
		return
	}
	if p.chordNode != nil && p.chordNode.HandleMessage(from, msg) {
		return
	}
	if p.chordClient != nil && p.chordClient.HandleMessage(from, msg) {
		return
	}
	switch m := msg.(type) {
	case clientQueryMsg:
		// Reaches us outside D-ring routing: either a PetalUp scan
		// forward from the previous instance (Sec. 4) or a direct query
		// from a client that learned our address through a denied claim.
		p.onDirectClientQuery(m)
	case dirQueryResp:
		p.onDirQueryResp(m)
	case vacantResp:
		p.onVacantResp(m)
	case promoteMsg:
		p.onPromote(m)
	case promotedMsg:
		p.onPromoted(from, m)
	case handoffMsg:
		p.onHandoff(m)
	case deadProviderReport:
		// Trust the reporter: a timeout is the only way anyone learns of
		// a death, and the member re-registers on its next keepalive if
		// the report was spurious.
		if p.dir != nil {
			p.removeMember(m.Dead)
		}
	}
}

// HandleRequest dispatches RPCs.
func (p *Peer) HandleRequest(from runtime.NodeID, req any) (any, error) {
	if p.dead {
		return nil, fmt.Errorf("flower: dead peer")
	}
	if p.chordNode != nil {
		if resp, err, ok := p.chordNode.HandleRequest(from, req); ok {
			return resp, err
		}
	}
	if resp, err, ok := p.gsp.HandleRequest(from, req); ok {
		return resp, err
	}
	switch r := req.(type) {
	case workload.FetchReq:
		return p.sys.work.FetchRespMsg(r.Key, p.store.Has(r.Key)), nil
	case keepaliveReq:
		return p.onKeepalive(from, r)
	case pushReq:
		return p.onPush(from, r)
	case dirQueryReq:
		return p.onMemberQuery(from, r)
	default:
		return nil, fmt.Errorf("flower: unhandled request %T", req)
	}
}

// ---- gossip hooks ----

// gossipApp adapts Peer to the gossip.App interface without polluting
// Peer's method set.
type gossipApp Peer

func (g *gossipApp) SelfDescriptor() any { return (*Peer)(g).selfMeta() }

func (g *gossipApp) OnExchange(peer runtime.NodeID, received []gossip.Entry) {
	p := (*Peer)(g)
	if p.dead {
		return
	}
	// Reconcile dir-info (Sec. 5.1): same position, keep smaller age.
	// Directories are their own authority and never adopt.
	if p.role == RoleDirectory {
		return
	}
	adopted := false
	for _, e := range received {
		meta, ok := e.Meta.(ContactMeta)
		if !ok {
			continue
		}
		if meta.Dir.Node != p.lastDeadDir && meta.Dir.Fresher(p.dirInfo) {
			p.dirInfo = meta.Dir
			adopted = true
		}
	}
	if adopted && p.needsFullPush() {
		// Learned of a replacement directory through gossip: rebuild its
		// index with our store without waiting for the next keepalive.
		p.maybePush()
	}
}

func (g *gossipApp) OnContactDead(peer runtime.NodeID) {
	// Nothing beyond the view eviction gossip already did; the
	// directory finds out through missing keepalives.
}
