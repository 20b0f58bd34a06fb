package workload

import (
	"math"
	"testing"

	"flowercdn/internal/content"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/sim"
	"flowercdn/internal/simnet"
	"flowercdn/internal/topology"
)

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 0.8); err == nil {
		t.Fatal("zipf over 0 ranks accepted")
	}
	if _, err := NewZipf(10, -1); err == nil {
		t.Fatal("negative alpha accepted")
	}
}

func TestZipfProbsSumToOne(t *testing.T) {
	z, err := NewZipf(500, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := 0; i < z.N(); i++ {
		sum += z.Prob(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %g", sum)
	}
	if z.Prob(-1) != 0 || z.Prob(500) != 0 {
		t.Fatal("out-of-range Prob should be 0")
	}
}

func TestZipfMonotoneDecreasing(t *testing.T) {
	z, _ := NewZipf(100, 0.8)
	for i := 1; i < z.N(); i++ {
		if z.Prob(i) > z.Prob(i-1)+1e-12 {
			t.Fatalf("popularity not decreasing at rank %d", i)
		}
	}
}

func TestZipfEmpiricalSkew(t *testing.T) {
	z, _ := NewZipf(500, 0.8)
	rng := rnd.New(1)
	counts := make([]int, 500)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Rank(rng)]++
	}
	// Rank 0 should receive ~Prob(0) of draws.
	got := float64(counts[0]) / n
	want := z.Prob(0)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("rank 0 frequency %.4f, want ~%.4f", got, want)
	}
	// Top-10 share must dominate a uniform share.
	top := 0
	for i := 0; i < 10; i++ {
		top += counts[i]
	}
	if float64(top)/n < 3*10.0/500.0 {
		t.Fatalf("top-10 share %.3f not skewed enough", float64(top)/n)
	}
}

func TestZipfAlphaZeroIsUniform(t *testing.T) {
	z, _ := NewZipf(50, 0)
	for i := 0; i < 50; i++ {
		if math.Abs(z.Prob(i)-0.02) > 1e-9 {
			t.Fatalf("alpha=0 rank %d prob %g, want 0.02", i, z.Prob(i))
		}
	}
}

func TestZipfRankInBounds(t *testing.T) {
	z, _ := NewZipf(7, 1.2)
	rng := rnd.New(2)
	for i := 0; i < 10000; i++ {
		r := z.Rank(rng)
		if r < 0 || r >= 7 {
			t.Fatalf("rank %d out of bounds", r)
		}
	}
}

func TestWorkloadValidation(t *testing.T) {
	bad := []Config{
		{Sites: 100, ObjectsPerSite: 500, ActiveSites: 0, QueryMeanInterval: 1, ZipfAlpha: 0.8},
		{Sites: 100, ObjectsPerSite: 500, ActiveSites: 101, QueryMeanInterval: 1, ZipfAlpha: 0.8},
		{Sites: 100, ObjectsPerSite: 500, ActiveSites: 6, QueryMeanInterval: 0, ZipfAlpha: 0.8},
		{Sites: 0, ObjectsPerSite: 500, ActiveSites: 1, QueryMeanInterval: 1, ZipfAlpha: 0.8},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestAssignInterestCoversAllSites(t *testing.T) {
	w, _ := New(DefaultConfig())
	rng := rnd.New(3)
	seen := map[content.SiteID]bool{}
	for i := 0; i < 20000; i++ {
		s := w.AssignInterest(rng)
		if int(s) < 0 || int(s) >= 100 {
			t.Fatalf("interest %d out of range", s)
		}
		seen[s] = true
	}
	if len(seen) != 100 {
		t.Fatalf("interest covered %d sites, want 100", len(seen))
	}
}

func TestActiveSites(t *testing.T) {
	w, _ := New(DefaultConfig())
	for s := 0; s < 6; s++ {
		if !w.Active(content.SiteID(s)) {
			t.Fatalf("site %d should be active", s)
		}
	}
	for _, s := range []int{6, 50, 99} {
		if w.Active(content.SiteID(s)) {
			t.Fatalf("site %d should be inactive", s)
		}
	}
}

func TestNextQueryDelayMean(t *testing.T) {
	w, _ := New(DefaultConfig())
	rng := rnd.New(4)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(w.NextQueryDelay(rng))
	}
	mean := sum / n
	want := float64(6 * sim.Minute)
	if math.Abs(mean-want) > 0.05*want {
		t.Fatalf("mean query gap %.0f, want ~%.0f", mean, want)
	}
}

func TestPickObjectSkipsOwned(t *testing.T) {
	w, _ := New(DefaultConfig())
	rng := rnd.New(5)
	store := content.NewStore()
	// Own the 5 most popular objects; picks must avoid them.
	for i := 0; i < 5; i++ {
		store.Add(content.Key{Site: 0, Object: content.ObjectID(i)})
	}
	for i := 0; i < 2000; i++ {
		k, ok := w.PickObject(rng, 0, store)
		if !ok {
			t.Fatal("PickObject gave up with catalog mostly unowned")
		}
		if store.Has(k) {
			t.Fatalf("picked owned object %v", k)
		}
		if k.Site != 0 {
			t.Fatalf("picked wrong site %v", k)
		}
	}
}

func TestPickObjectExhaustedCatalog(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ObjectsPerSite = 10
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rnd.New(6)
	store := content.NewStore()
	for i := 0; i < 10; i++ {
		store.Add(content.Key{Site: 2, Object: content.ObjectID(i)})
	}
	if _, ok := w.PickObject(rng, 2, store); ok {
		t.Fatal("PickObject returned an object from an exhausted catalog")
	}
	// One object short of complete must still find the gap via scan.
	store2 := content.NewStore()
	for i := 0; i < 9; i++ {
		store2.Add(content.Key{Site: 2, Object: content.ObjectID(i)})
	}
	k, ok := w.PickObject(rng, 2, store2)
	if !ok || k.Object != 9 {
		t.Fatalf("PickObject near-complete = %v %v, want object 9", k, ok)
	}
}

func TestOriginsServeEverything(t *testing.T) {
	eng := sim.NewEngine()
	rng := rnd.New(7)
	topo := topology.MustNew(topology.DefaultConfig(), rng)
	net := simnet.New(eng.Clock(), topo)
	w, _ := New(DefaultConfig())
	origins := NewOrigins(w, net, rng)

	if net.TotalJoined() != 100 {
		t.Fatalf("expected 100 origin nodes, got %d", net.TotalJoined())
	}
	// A client node fetches from an origin.
	client := net.Join(clientStub{}, topo.Place(rng))
	var got FetchResp
	net.Request(client, origins.Node(7), FetchReq{Key: content.Key{Site: 7, Object: 3}}, 0,
		func(resp any, err error) {
			if err != nil {
				t.Errorf("origin fetch failed: %v", err)
				return
			}
			got = resp.(FetchResp)
		})
	eng.RunAll()
	if !got.Served || got.Key != (content.Key{Site: 7, Object: 3}) {
		t.Fatalf("origin response %+v", got)
	}
}

func TestOriginRejectsJunk(t *testing.T) {
	o := &originServer{site: 1}
	if _, err := o.HandleRequest(0, "junk"); err == nil {
		t.Fatal("origin accepted junk request")
	}
}

type clientStub struct{}

func (clientStub) HandleMessage(runtime.NodeID, any) {}
func (clientStub) HandleRequest(runtime.NodeID, any) (any, error) {
	return nil, nil
}

// TestFetchMsgsAreInterned pins what the query path's allocation count
// rests on: the fetch messages of one key are boxed once per Workload,
// equal what a sender would have built by hand, and a key outside the
// catalog (a decoded request may name anything) still gets an answer.
func TestFetchMsgsAreInterned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sites, cfg.ObjectsPerSite, cfg.ActiveSites = 4, 10, 2
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := content.Key{Site: 3, Object: 9}
	if got := w.FetchReqMsg(k); got != any(FetchReq{Key: k}) {
		t.Fatalf("FetchReqMsg = %#v", got)
	}
	for _, served := range []bool{true, false} {
		if got := w.FetchRespMsg(k, served); got != any(FetchResp{Key: k, Served: served}) {
			t.Fatalf("FetchRespMsg(%v) = %#v", served, got)
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		_ = w.FetchReqMsg(k)
		_ = w.FetchRespMsg(k, true)
		_ = w.FetchRespMsg(k, false)
	}); got != 0 {
		t.Errorf("interned fetch messages allocate %v objects per use, want 0", got)
	}
	if len(w.fetch) != 4 || w.fetch[3] == nil || w.fetch[0] != nil {
		t.Errorf("rows are made per site on first use; got %d rows, site 0 made: %v", len(w.fetch), w.fetch[0] != nil)
	}
	for _, out := range []content.Key{{Site: 4, Object: 0}, {Site: 0, Object: 10}, {Site: -1, Object: 0}, {Site: 0, Object: -1}} {
		if got := w.FetchReqMsg(out); got != any(FetchReq{Key: out}) {
			t.Errorf("FetchReqMsg(%v) = %#v", out, got)
		}
		if got := w.FetchRespMsg(out, true); got != any(FetchResp{Key: out, Served: true}) {
			t.Errorf("FetchRespMsg(%v) = %#v", out, got)
		}
	}
}
