package flower

import (
	"flowercdn/internal/chord"
	"flowercdn/internal/content"
	"flowercdn/internal/runtime"
)

// startKeepalive arms the content-peer maintenance loop (Sec. 5.1):
// each period the peer ages its dir-info, pings its directory, and —
// through the ping's failure — detects directory departures.
func (p *Peer) startKeepalive() {
	if p.keepaliveTimer != nil {
		return
	}
	period := p.sys.cfg.KeepaliveInterval
	p.keepaliveTimer = p.eng().Every(p.sys.rng.UniformDuration(period/4, period), period, p.keepaliveTick)
}

func (p *Peer) keepaliveTick() {
	if p.dead || p.role != RoleContent {
		return
	}
	if !p.dirInfo.Valid() {
		// Orphaned: rediscover the petal's directory over D-ring.
		p.rejoinPetal()
		return
	}
	p.dirInfo.Age++
	if p.needsFullPush() {
		// A push both registers us and rebuilds the new directory's
		// index; it doubles as this period's keepalive.
		p.maybePush()
		return
	}
	p.sendKeepalive(p.dirInfo.Node, p.sys.getStep(stepKeepalive, p, nil, p.dirInfo.Node).onDone)
}

func (p *Peer) sendKeepalive(dirNode runtime.NodeID, cb func(any, error)) {
	p.net().Request(p.nid, dirNode, keepaliveReq{Site: p.site, Loc: p.loc}, p.sys.cfg.Chord.RPCTimeout, cb)
}

// dirAnswered is the answer to every exchange that doubles as a
// liveness check of directory dirNode — keepalive and confirming probe
// (stepKeepalive), push (stepPush; synced: the directory now holds our
// full store). A failure counts towards replacement; an answer from
// what is still our directory resets the miss count and the dir-info
// age.
func (p *Peer) dirAnswered(dirNode runtime.NodeID, synced bool, err error) {
	if p.dead {
		return
	}
	if err != nil {
		p.dirContactFailed(dirNode)
		return
	}
	if p.dirInfo.Node == dirNode {
		p.dirMisses = 0
		p.dirInfo.Age = 0
	}
	if synced {
		p.syncedDir = dirNode
	}
}

// needsFullPush reports whether the current directory has never
// received our full store.
func (p *Peer) needsFullPush() bool {
	return p.dirInfo.Valid() && p.dirInfo.Node != p.syncedDir && p.store.Len() > 0
}

// maybePush sends stored-content updates to the directory: the full
// store when the directory node changed since our last sync
// (replacement/promotion recovery, Sec. 5.2.2), otherwise the delta
// once the changed fraction reaches the threshold (Sec. 5.1). A push
// doubles as a keepalive: the directory refreshes the member's
// freshness on receipt.
func (p *Peer) maybePush() {
	if p.dead || p.role != RoleContent || !p.dirInfo.Valid() {
		return
	}
	full := p.needsFullPush()
	if !full && p.store.ChangedFraction() < p.sys.cfg.PushThreshold {
		return
	}
	var keys []content.Key
	if full {
		keys = p.store.Keys()
		p.store.DropDelta() // the full set subsumes any pending delta
	} else {
		keys = p.store.TakeDelta()
	}
	if len(keys) == 0 {
		return
	}
	p.net().Request(p.nid, p.dirInfo.Node, pushReq{Site: p.site, Loc: p.loc, Keys: keys},
		p.sys.cfg.Chord.RPCTimeout, p.sys.getStep(stepPush, p, nil, p.dirInfo.Node).onDone)
}

// dirContactFailed handles one failed exchange with the directory. A
// single lost message is not death: the peer probes once more before
// starting the replacement protocol, which keeps lossy links (the
// failure-injection configurations) from churning directories that are
// alive and well.
func (p *Peer) dirContactFailed(dirNode runtime.NodeID) {
	if p.dead || p.dirInfo.Node != dirNode {
		return
	}
	p.dirMisses++
	if p.dirMisses < 2 {
		p.eng().Schedule(2*runtime.Second, func() {
			if !p.dead && p.dirInfo.Node == dirNode {
				p.sendKeepalive(dirNode, p.sys.getStep(stepKeepalive, p, nil, dirNode).onDone)
			}
		}).Release()
		return
	}
	p.dirMisses = 0
	p.onDirectoryDead(dirNode)
}

// onDirectoryDead reacts to a confirmed-dead directory
// (Sec. 5.2.1): "the replacement is performed by the first peer related
// to ws and loc that detects the failure". Every detector races through
// the claim protocol; losers adopt the winner.
func (p *Peer) onDirectoryDead(deadNode runtime.NodeID) {
	if p.dead || p.replacing {
		return
	}
	if p.dirInfo.Node != deadNode {
		return // stale detection: we already moved on
	}
	if p.role != RoleContent {
		// Clients just forget the pointer; their next query re-routes
		// over D-ring.
		p.dirInfo = DirInfo{Node: runtime.None}
		return
	}
	pos := p.dirInfo.Pos
	p.dirInfo = DirInfo{Pos: pos, Node: runtime.None, Age: 0}
	p.lastDeadDir = deadNode
	p.replacing = true
	p.claimDirectoryPosition(pos, deadNode, func(current chord.Entry, err error) {
		p.replacing = false
		if p.dead {
			return
		}
		if err == nil {
			p.sys.dirReplacement++
			return
		}
		if current.Valid() && current.Node != deadNode {
			// Somebody else won (or already held) the position: adopt
			// them and sync our store into their rebuilding index; the
			// push also registers us in their view, and gossip spreads
			// the fresh dir-info (age 0) through the petal.
			p.dirInfo = DirInfo{Pos: pos, Node: current.Node, Age: 0}
			if p.needsFullPush() {
				p.maybePush()
				return
			}
			p.sendKeepalive(current.Node, func(_ any, kerr error) {
				if !p.dead && kerr != nil && p.dirInfo.Node == current.Node {
					p.dirInfo = DirInfo{Pos: pos, Node: runtime.None}
				}
			})
			return
		}
		// Claim failed without a visible incumbent (ring trouble).
		// Rediscover through the normal D-ring path shortly — waiting a
		// whole keepalive period would leave the petal orphaned.
		p.eng().Schedule(45*runtime.Second, func() {
			if !p.dead && p.role == RoleContent && !p.dirInfo.Valid() {
				p.rejoinPetal()
			}
		}).Release()
	})
}

// rejoinPetal routes a membership-only query over D-ring to discover
// (or trigger recreation of) the petal's directory: a non-active
// arrival's way in, an orphan's way back.
func (p *Peer) rejoinPetal() {
	if p.query != nil {
		return // an active query will re-establish contact by itself
	}
	q := p.newQuery(content.Key{})
	q.joinOnly = true
	p.sendRoutedQuery(q)
}
