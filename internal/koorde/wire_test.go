package koorde

import (
	"testing"

	"flowercdn/internal/content"
	"flowercdn/internal/ids"
	"flowercdn/internal/trace"
	"flowercdn/internal/wiretest"
	"flowercdn/internal/workload"
)

// TestWireRoundTrips covers the de Bruijn routing message, bare, with a
// nested registered payload, and carrying a traced run's path.
func TestWireRoundTrips(t *testing.T) {
	k := content.Key{Site: 6, Object: 1}
	for _, msg := range []any{
		dbRouteMsg{
			Key: ids.ID(11), I: ids.ID(22), KShift: 1 << 60, BitsLeft: 12,
			Payload: workload.FetchReq{Key: k},
			Origin:  4, Hops: 3, Deliver: true,
		},
		dbRouteMsg{Key: ids.ID(1)},
		dbRouteMsg{Key: ids.ID(11), Payload: workload.FetchReq{Key: k}, Origin: 4, Hops: 1, Traced: true,
			Path: []trace.Hop{{Kind: trace.HopRoute, Node: 5, Loc: 2, At: 1500}}},
	} {
		wiretest.RoundTrip(t, msg)
	}
}
