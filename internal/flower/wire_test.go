package flower

import (
	"testing"

	"flowercdn/internal/bloom"
	"flowercdn/internal/chord"
	"flowercdn/internal/content"
	"flowercdn/internal/gossip"
	"flowercdn/internal/ids"
	"flowercdn/internal/runtime"
	"flowercdn/internal/wiretest"
)

// TestWireRoundTrips pushes populated exemplars of every flower
// message through each registered codec — including the deep-nesting
// cases the reflect-driven equivalence test cannot reach: gossip
// entries whose Meta is a ContactMeta whose Summary is a Bloom filter
// or an exact set.
func TestWireRoundTrips(t *testing.T) {
	dir := chord.Entry{Node: 5, ID: ids.ID(0xdeadbeef)}
	k1 := content.Key{Site: 1, Object: 10}
	k2 := content.Key{Site: 1, Object: 11}
	bf := bloom.NewForCapacity(50, 0.02)
	bf.Add(k1.Uint64())
	bf.Add(k2.Uint64())
	meta := ContactMeta{
		Summary: bf,
		Dir:     DirInfo{Pos: ids.ID(3), Node: 5, Age: 2},
	}
	seed := []gossip.Entry{
		{Peer: 9, Age: 1, Meta: meta},
		{Peer: 11, Age: 0, Meta: ContactMeta{Summary: summaryOf(k1, k2)}},
	}
	for _, msg := range []any{
		clientQueryMsg{Seq: 4, Key: k1, Client: 8, Site: 1, Loc: 2, JoinOnly: true, Scanned: 1},
		dirQueryResp{Seq: 4, Providers: []runtime.NodeID{3, 9}, FromSummary: true, Dir: dir, Seed: seed, CollabWith: []chord.Entry{dir}},
		dirQueryResp{Seq: 5, Dir: chord.NoEntry},
		vacantResp{Seq: 4, Pos: ids.ID(99)},
		dirQueryReq{Key: k2, Client: 3, Foreign: true},
		dirQueryReply{Providers: []runtime.NodeID{1}, CollabWith: []chord.Entry{dir}},
		keepaliveReq{Site: 1, Loc: 3},
		keepaliveResp{},
		pushReq{Site: 1, Loc: 2, Keys: []content.Key{k1, k2}},
		pushResp{},
		deadProviderReport{Dead: 12},
		promoteMsg{Pos: ids.ID(7)},
		promotedMsg{NewDir: dir},
		handoffMsg{
			Pos:     ids.ID(8),
			Index:   map[content.Key][]runtime.NodeID{k1: {2, 4}, k2: {6}},
			Members: []runtime.NodeID{2, 4, 6},
		},
		handoffMsg{Pos: ids.ID(9)},
		meta,
		ContactMeta{Dir: DirInfo{Node: runtime.None}},
		summaryOf(k1, k2),
	} {
		wiretest.RoundTrip(t, msg)
	}
}
