package chord

import (
	"testing"

	"flowercdn/internal/ids"
	"flowercdn/internal/runtime"
	"flowercdn/internal/trace"
	"flowercdn/internal/wiretest"
)

// TestWireRoundTrips pushes a populated exemplar of every chord
// message through each registered codec. routeMsg — one pointer-typed
// message in request, traced and reply form — carries a nested
// registered payload, so the interface-tagging path (WireWriter.Any)
// is exercised with real contents here, not just nil.
func TestWireRoundTrips(t *testing.T) {
	e := Entry{Node: 7, ID: ids.ID(0x9e3779b97f4a7c15)}
	for _, msg := range []any{
		&routeMsg{Key: ids.ID(42), Payload: GatewayAnnounce{E: e}, ReqID: 9, Origin: 3, Hops: 2, Deliver: true},
		&routeMsg{Key: ids.ID(1)}, // pure lookup: nil payload survives too
		&routeMsg{Key: ids.ID(42), Payload: GatewayAnnounce{E: e}, Origin: 3, Hops: 1, Traced: true,
			Path: []trace.Hop{{Kind: trace.HopRoute, Node: 5, Loc: 2, At: 1500}}},
		&routeMsg{Key: ids.ID(42), ReqID: 9, Origin: 3, Hops: 4, Deliver: true, Reply: true, Owner: e},
		notifyMsg{From: e},
		neighborsReq{},
		neighborsResp{Pred: e, Succs: []Entry{e, {Node: 8, ID: 1}}},
		pingReq{},
		pingResp{},
		claimReq{Pos: ids.ID(77), Claimant: e},
		claimResp{Granted: true, Current: e},
		claimResp{Current: NoEntry},
		claimTransfer{Pos: ids.ID(5), Claimant: e},
		GatewayAnnounce{E: e},
		GatewayRetract{Node: runtime.None},
	} {
		wiretest.RoundTrip(t, msg)
	}
}

// TestRouteMsgAllocs pins the binary codec's budget for the routed
// message: nothing to encode it, nested payload included, and to decode
// it the message and its payload, one object each — the reply, being
// the same message, costs what the request does.
func TestRouteMsgAllocs(t *testing.T) {
	e := Entry{Node: 7, ID: ids.ID(0x9e3779b97f4a7c15)}
	wiretest.BinaryAllocs(t, &routeMsg{Key: ids.ID(1), ReqID: 9, Origin: 3}, 1)
	wiretest.BinaryAllocs(t, &routeMsg{Key: ids.ID(1), ReqID: 9, Origin: 3, Hops: 4, Deliver: true, Reply: true, Owner: e}, 1)
	wiretest.BinaryAllocs(t, &routeMsg{Key: ids.ID(42), Payload: GatewayAnnounce{E: e}, ReqID: 9, Origin: 3, Hops: 2}, 2)
}
