package baseline

import (
	"testing"

	"flowercdn/internal/content"
	"flowercdn/internal/runtime"
	"flowercdn/internal/trace"
	"flowercdn/internal/wiretest"
)

// TestWireRoundTrips pushes the ring-directory deployment's three
// messages — the only ones squirrel, chord-global and koorde-global
// put on the wire besides their overlay's — through every codec, the
// redirect both plain and carrying a traced run's path.
func TestWireRoundTrips(t *testing.T) {
	k := content.Key{Site: 2, Object: 8}
	for _, msg := range []any{
		query{Seq: 1, Key: k, Client: 3},
		homeResp{Seq: 1, Providers: []runtime.NodeID{2, 9}},
		homeResp{Seq: 4},
		homeResp{Seq: 1, Providers: []runtime.NodeID{5}, Path: []trace.Hop{
			{Kind: trace.HopRoute, Node: 5, Loc: 2, At: 1500},
			{Kind: trace.HopHome, Node: 7, Loc: 1, At: 1620}}},
		summary{Node: 4, Keys: []content.Key{k, {Site: 2, Object: 9}}},
		summary{Node: 4},
	} {
		wiretest.RoundTrip(t, msg)
	}
}
