package chord

import (
	"flowercdn/internal/ids"
)

// onClaim serializes attempts to occupy a vacant position on this
// node's arc (paper Sec. 5.2.2: several peers may simultaneously target
// the same vacant directory position; only the first succeeds). The
// current owner of the arc containing Pos acts as the serialization
// point: it grants the first claim and denies every rival, pointing it
// at the granted claimant. Two nodes at the same ring identifier would
// corrupt ring arithmetic, so a reservation is NEVER released on time
// alone — the winner may already be integrated yet invisible to
// lookups for a stabilization period. Instead, a denied claim triggers
// an asynchronous liveness probe of the record's claimant (rate-limited
// by ClaimTTL); only a confirmed-dead claimant frees the position for
// the rival's retry.
func (n *Node) onClaim(r claimReq) (claimResp, error) {
	// If we *are* the claimed position, it is occupied by definition.
	if r.Pos == n.self.ID {
		return claimResp{Granted: false, Current: n.self}, nil
	}
	if c, ok := n.claims[r.Pos]; ok {
		if c.claimant.Node == r.Claimant.Node {
			// Same peer retrying: still its reservation.
			return claimResp{Granted: true}, nil
		}
		n.verifyClaimant(r.Pos)
		return claimResp{Granted: false, Current: c.claimant}, nil
	}
	// Only the arc owner may serialize claims. During ring healing a
	// stale node can still receive a claim routed through old pointers;
	// granting from there would allow duplicate positions.
	if !n.OwnsKey(r.Pos) {
		return claimResp{Granted: false, Current: NoEntry}, nil
	}
	n.reserve(r.Pos, r.Claimant)
	return claimResp{Granted: true}, nil
}

// reserve records claimant's reservation of pos for ClaimTTL, making
// the claims map at the first one: a node that never serializes a claim
// never has one.
func (n *Node) reserve(pos ids.ID, claimant Entry) {
	if n.claims == nil {
		n.claims = make(map[ids.ID]claim)
	}
	n.claims[pos] = claim{claimant: claimant, expires: n.eng.Now() + n.cfg.ClaimTTL}
}

// verifyClaimant pings the holder of a reservation and frees the
// position if it is dead. ClaimTTL acts as a probe rate limit so claim
// storms do not multiply pings.
func (n *Node) verifyClaimant(pos ids.ID) {
	c, ok := n.claims[pos]
	if !ok || n.eng.Now() < c.expires {
		return
	}
	c.expires = n.eng.Now() + n.cfg.ClaimTTL
	n.claims[pos] = c
	claimant := c.claimant
	n.net.Request(n.self.Node, claimant.Node, pingReq{}, n.cfg.RPCTimeout,
		func(_ any, err error) {
			if n.stopped || err == nil {
				return
			}
			if cur, ok := n.claims[pos]; ok && cur.claimant.Node == claimant.Node {
				delete(n.claims, pos)
			}
		})
}

// JoinAt occupies the specific ring position pos, which must equal the
// node's own ring ID. The sequence is: resolve pos's current owner via
// the gateway, detect occupancy, reserve the position with the owner,
// then join with the owner as successor. cb receives:
//
//   - nil on success (this node is now the directory peer at pos);
//   - ErrOccupied with current set to the incumbent;
//   - ErrClaimDenied with current set to the winning rival;
//   - ErrLookupFailed when the ring could not be consulted.
func (n *Node) JoinAt(gateway Entry, cb func(current Entry, err error)) {
	if n.started {
		panic("chord: JoinAt on started node")
	}
	pos := n.self.ID
	n.lookup(gateway.Node, pos, noFinger, func(owner Entry, _ int, err error) {
		if n.stopped {
			return
		}
		if err != nil {
			cb(NoEntry, err)
			return
		}
		if owner.ID == pos {
			// Somebody (maybe a freshly integrated rival) already sits
			// exactly at the position.
			cb(owner, ErrOccupied)
			return
		}
		n.net.Request(n.self.Node, owner.Node, claimReq{Pos: pos, Claimant: n.self},
			n.cfg.RPCTimeout, func(resp any, rerr error) {
				if n.stopped {
					return
				}
				if rerr != nil {
					// Owner died mid-claim; report as a lookup failure so
					// the caller retries from scratch.
					cb(NoEntry, ErrLookupFailed)
					return
				}
				cr := resp.(claimResp)
				if !cr.Granted {
					// Current may be the reserved claimant (its ID equals
					// pos) or NoEntry when the probed node was not the
					// arc owner; either way the claim lost.
					cb(cr.Current, ErrClaimDenied)
					return
				}
				n.setSuccessor(owner)
				n.pred = NoEntry
				n.start()
				// Announce immediately instead of waiting a stabilize
				// period: the owner's predecessor pointer is how the rest
				// of the ring discovers us. Stabilize right away too, so
				// the successor list stops being a single point of
				// failure.
				n.notifySuccessor()
				n.stabilize()
				cb(NoEntry, nil)
			})
	})
}

// OwnsKey reports whether, per this node's current view, key falls on
// its arc (pred, self]. A single-node ring owns every key. With an
// unknown predecessor (cleared by a liveness probe, mid-healing) the
// answer is NO: granting position claims without a known arc boundary
// is how duplicate directory positions are born — the claimant simply
// retries once the ring converges. Note that a predecessor pointer at
// a *dead* node still defines the correct arc arithmetic, so the
// common heal path (my predecessor just died, its replacement claims
// through me) is granted immediately.
func (n *Node) OwnsKey(key ids.ID) bool {
	if key == n.self.ID {
		return true
	}
	if n.pred.Node == n.self.Node {
		return true // alone on the ring
	}
	if !n.pred.Valid() {
		return false // healing: arc boundary unknown, deny and let retry
	}
	if key == n.pred.ID {
		// The key IS our predecessor's position. Claims for it reach us
		// only when that predecessor died (a live holder would have
		// received the routed claim itself), and its replacement is
		// exactly the claim we must serialize — D-ring positions are
		// reused across holder generations.
		return true
	}
	return ids.BetweenRightIncl(key, n.pred.ID, n.self.ID)
}
