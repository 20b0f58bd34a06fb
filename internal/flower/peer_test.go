package flower

import (
	"flowercdn/internal/runtime"
	"strings"
	"testing"
	"unsafe"

	"flowercdn/internal/bloom"
	"flowercdn/internal/content"
)

func TestRoleStrings(t *testing.T) {
	cases := map[Role]string{
		RoleClient:    "client",
		RoleContent:   "content",
		RoleDirectory: "directory",
		Role(42):      "role(42)",
	}
	for r, want := range cases {
		if r.String() != want {
			t.Fatalf("Role(%d).String() = %q, want %q", int(r), r.String(), want)
		}
	}
}

func TestSelfMetaBloomVsExact(t *testing.T) {
	fb := newFixture(t, 60, nil)
	fb.seedRing()
	cb := fb.spawn(0, 0)
	cb.store.Add(content.Key{Site: 0, Object: 5})
	meta := cb.selfMeta()
	if _, ok := meta.Summary.(*bloom.Filter); !ok {
		t.Fatalf("default summary type %T, want *bloom.Filter", meta.Summary)
	}
	if !meta.Summary.Contains(content.Key{Site: 0, Object: 5}.Uint64()) {
		t.Fatal("bloom summary missing stored key")
	}

	fe := newFixture(t, 61, func(c *Config) { c.ExactSummaries = true })
	fe.seedRing()
	ce := fe.spawn(0, 0)
	ce.store.Add(content.Key{Site: 0, Object: 5})
	meta = ce.selfMeta()
	if _, ok := meta.Summary.(exactSummary); !ok {
		t.Fatalf("ablation summary type %T, want exactSummary", meta.Summary)
	}
	if !meta.Summary.Contains(content.Key{Site: 0, Object: 5}.Uint64()) {
		t.Fatal("exact summary missing stored key")
	}
	if meta.Summary.Contains(content.Key{Site: 0, Object: 6}.Uint64()) {
		t.Fatal("exact summary reported a false positive")
	}
}

func TestDeadPeerHandlersSilent(t *testing.T) {
	f := newFixture(t, 62, nil)
	f.seedRing()
	c := f.spawn(0, 0)
	f.run(5 * runtime.Minute)
	f.kill(c)
	// Messages to a dead peer's handler must be inert.
	c.HandleMessage(runtime.NodeID(1), dirQueryResp{Seq: 1})
	if _, err := c.HandleRequest(runtime.NodeID(1), keepaliveReq{}); err == nil {
		t.Fatal("dead peer accepted an RPC")
	}
}

// TestKilledPeerDropsItsDelta: a session's pending push delta dies with
// it. The individual's store outlives the session, and its next session
// pushes the whole store first, so a delta kept between sessions would
// only hold memory.
func TestKilledPeerDropsItsDelta(t *testing.T) {
	f := newFixture(t, 62, nil)
	f.seedRing()
	c := f.spawn(0, 0)
	f.run(5 * runtime.Minute)
	c.store.Add(content.Key{Site: 0, Object: 49})
	if c.store.PendingChanges() == 0 {
		t.Fatal("no pending change after an Add")
	}
	f.kill(c)
	if n := c.store.PendingChanges(); n != 0 {
		t.Errorf("a killed peer's store keeps %d pending changes, want 0", n)
	}
}

func TestStatsStringsAndSummaryBytes(t *testing.T) {
	// Wire-size hints used for byte accounting must be positive and
	// scale with payload size.
	small := pushReq{Keys: make([]content.Key, 1)}
	big := pushReq{Keys: make([]content.Key, 100)}
	if small.WireBytes() <= 0 || big.WireBytes() <= small.WireBytes() {
		t.Fatal("pushReq wire size not monotone")
	}
	r := dirQueryResp{Providers: make([]runtime.NodeID, 3)}
	if r.WireBytes() <= 0 {
		t.Fatal("dirQueryResp wire size non-positive")
	}
	h := handoffMsg{
		Index:   map[content.Key][]runtime.NodeID{{Site: 1, Object: 2}: {3, 4}},
		Members: []runtime.NodeID{3, 4},
	}
	if h.WireBytes() <= 0 {
		t.Fatal("handoff wire size non-positive")
	}
}

func TestDirInfoStringsViaSummary(t *testing.T) {
	f := newFixture(t, 63, nil)
	f.seedRing()
	dir := f.findSeed(0, 0)
	// Smoke the exported accessors.
	d := dir.Directory()
	if d.Pos() == 0 && d.Instance() != 0 {
		t.Fatal("directory accessors inconsistent")
	}
	if got := dir.Role().String(); !strings.Contains(got, "directory") {
		t.Fatalf("role string %q", got)
	}
	if d.QueriesHandled() > 1000000 {
		t.Fatal("implausible query counter")
	}
}

// TestPerPeerRecordsStayInTheirSizeClass guards the big cell's memory
// budget (4 KiB per node, `make bigcell-smoke`): every peer is one Peer,
// its gossip state, gossip stream and first query record inside it. The
// Peer sits exactly on the 480-byte size class — one more word costs
// each peer 32 bytes — and so does the activeQuery it embeds, on 144.
// Before the sub-states moved in, the Peer (168 bytes) sat in the
// 176-byte class, and the gossip state (144), its stream (32) and the
// query record (144) were allocated beside it: 496 bytes in four
// objects.
func TestPerPeerRecordsStayInTheirSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Peer{}); got > 480 {
		t.Errorf("Peer is %d bytes, over the 480-byte size class", got)
	}
	if got := unsafe.Sizeof(activeQuery{}); got > 144 {
		t.Errorf("activeQuery is %d bytes, over the 144-byte size class", got)
	}
}
