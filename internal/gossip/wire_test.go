package gossip

import (
	"math"
	"strings"
	"testing"

	"flowercdn/internal/runtime"
	"flowercdn/internal/wiretest"
)

// TestWireRoundTrips covers the shuffle messages under every codec.
// Meta stays nil here — gossip does not know the application's
// metadata types; flower's wire tests shuffle entries carrying real
// ContactMeta.
func TestWireRoundTrips(t *testing.T) {
	for _, msg := range []any{
		shuffleReq{From: 4, Entries: []Entry{{Peer: 1, Age: 0}, {Peer: 9, Age: 3}}},
		shuffleReq{From: 2},
		shuffleResp{Entries: []Entry{{Peer: 5, Age: 1}, {Peer: 6, Age: math.MaxInt32}}},
		shuffleResp{},
	} {
		wiretest.RoundTrip(t, msg)
	}
}

// TestDecodeEntryRejectsAgesOutsideInt32 holds the decoder to what an
// Entry can carry: an age below zero or past MaxInt32 fails the reader
// instead of truncating.
func TestDecodeEntryRejectsAgesOutsideInt32(t *testing.T) {
	for _, age := range []int64{-1, 1 << 31} {
		w := runtime.NewWireWriter(nil)
		w.Node(3)
		w.Varint(age)
		r := runtime.NewWireReader(w.Finish())
		e := DecodeEntryWire(r)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "age") {
			t.Errorf("age %d decoded to %+v, err %v; want an age error", age, e, err)
		}
	}
}
