package workload

import (
	"testing"

	"flowercdn/internal/content"
	"flowercdn/internal/wiretest"
)

func TestWireRoundTrips(t *testing.T) {
	k := content.Key{Site: 2, Object: 31}
	wiretest.RoundTrip(t, FetchReq{Key: k})
	wiretest.RoundTrip(t, FetchResp{Key: k, Served: true})
	wiretest.RoundTrip(t, FetchResp{Key: k})
}

// TestFetchAllocs pins what the binary codec allocates per fetch RPC
// leg: nothing to encode, the decoded value to decode.
func TestFetchAllocs(t *testing.T) {
	k := content.Key{Site: 2, Object: 31}
	wiretest.BinaryAllocs(t, FetchReq{Key: k}, 1)
	wiretest.BinaryAllocs(t, FetchResp{Key: k, Served: true}, 1)
}
