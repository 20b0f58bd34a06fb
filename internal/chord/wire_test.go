package chord

import (
	"encoding/hex"
	"reflect"
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
		&neighborsResp{Pred: e, Succs: []Entry{e, {Node: 8, ID: 1}}},
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

// TestNeighborsRespWireIsUnchanged pins the neighbours reply's body to
// the bytes the binary codec wrote when the reply was a value: lists of
// 0, 1 and 8 entries. The tag in front may differ, since tags follow the
// registered type names; each decodes back to the *neighborsResp it was.
func TestNeighborsRespWireIsUnchanged(t *testing.T) {
	c, err := runtime.NewCodec("binary")
	if err != nil {
		t.Fatal(err)
	}
	pred := Entry{Node: 7, ID: ids.ID(0x9e3779b97f4a7c15)}
	var eight []Entry
	for i := range 8 {
		eight = append(eight, Entry{Node: runtime.NodeID(1 << (3 * i)), ID: ids.ID(uint64(i+1) * 0x0123456789abcdef)})
	}
	for _, tc := range []struct {
		reply *neighborsResp
		body  string
	}{
		{&neighborsResp{Pred: NoEntry}, "01000000000000000000"},
		{&neighborsResp{Pred: pred, Succs: eight[:1]}, "0e9e3779b97f4a7c1501020123456789abcdef"},
		{&neighborsResp{Pred: pred, Succs: eight},
			"0e9e3779b97f4a7c1508020123456789abcdef1002468acf13579bde80010369d0369d0369cd8008048d159e26af37bc80" +
				"4005b05b05b05b05ab80800406d3a06d3a06d39a80802007f6e5d4c3b2a18980808002091a2b3c4d5e6f78"},
	} {
		b, err := c.AppendMessage(nil, tc.reply)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b[1:]); got != tc.body {
			t.Errorf("reply with %d successors encodes to body\n%s\nwant\n%s", len(tc.reply.Succs), got, tc.body)
		}
		back, err := c.DecodeMessage(b)
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := back.(*neighborsResp); !ok || !reflect.DeepEqual(r, tc.reply) {
			t.Errorf("decoded %#v, want %#v", back, tc.reply)
		}
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
