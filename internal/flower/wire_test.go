package flower

import (
	"encoding/hex"
	"reflect"
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
		newDirQueryReply([]runtime.NodeID{1}, false, []chord.Entry{dir}),
		newDirQueryReply([]runtime.NodeID{3, 9, 4}, true, nil),
		dirQueryReply{},
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

// TestDirQueryReplyWireIsUnchanged pins the directory reply to the bytes
// the binary codec wrote when the reply was a struct of slices: no,
// one and three providers, with and without sibling directories. Each
// decodes back to the reply it was.
func TestDirQueryReplyWireIsUnchanged(t *testing.T) {
	c, err := runtime.NewCodec("binary")
	if err != nil {
		t.Fatal(err)
	}
	sibs := []chord.Entry{{Node: 5, ID: ids.ID(0xdeadbeef)}, {Node: 7, ID: ids.ID(0x0123456789abcdef)}}
	three := []runtime.NodeID{3, 900, 1 << 20}
	for _, tc := range []struct {
		reply dirQueryReply
		want  string
	}{
		{newDirQueryReply(nil, false, nil), "11000000"},
		{newDirQueryReply(nil, false, sibs), "110000020a00000000deadbeef0e0123456789abcdef"},
		{newDirQueryReply([]runtime.NodeID{42}, false, nil), "1101540000"},
		{newDirQueryReply([]runtime.NodeID{42}, false, sibs[:1]), "11015400010a00000000deadbeef"},
		{newDirQueryReply(three, true, nil), "110306880e808080010100"},
		{newDirQueryReply(three, true, sibs), "110306880e8080800101020a00000000deadbeef0e0123456789abcdef"},
	} {
		b, err := c.AppendMessage(nil, tc.reply)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != tc.want {
			t.Errorf("reply with %v (summary %v) and siblings %v encodes to\n%s\nwant\n%s",
				tc.reply.Providers(), tc.reply.FromSummary(), tc.reply.CollabWith(), got, tc.want)
		}
		back, err := c.DecodeMessage(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, tc.reply) {
			t.Errorf("decoded %#v, want %#v", back, tc.reply)
		}
	}
}
