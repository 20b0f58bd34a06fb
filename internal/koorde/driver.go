package koorde

import (
	"flowercdn/internal/baseline"
	"flowercdn/internal/chord"
	"flowercdn/internal/ids"
	"flowercdn/internal/proto"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
)

// Global is koorde-global: chord-global's deployment — one global ring,
// per-website home directories, summary refreshes, random redirection,
// no locality — with Koorde's de Bruijn edges carrying every routed
// query and summary. The two differ in exactly one thing, the routing
// geometry, so their hit ratios match and their hop counts isolate
// O(log n / log b) against O(log n).
var Global = baseline.RingDirectory(baseline.RingSpec{
	Info: proto.Info{
		Name:    "koorde-global",
		Summary: "chord-global's directory scheme routed over Koorde de Bruijn edges",
		Compare: true,
	},
	Router:        router,
	HomeKey:       baseline.SiteHome("kg-site-%d"),
	PushSummaries: true,
})

// router lowers the overlay's one option: chord-demo (compressed
// maintenance timescales).
func router(opts proto.Options) (baseline.NewRouter, error) {
	kc := DefaultConfig()
	if opts.Bool("chord-demo", false) {
		kc = DemoConfig()
	}
	return func(pool *chord.Pool, net runtime.Net, rng *rnd.RNG, app chord.App, nid runtime.NodeID, ringID ids.ID) (baseline.Router, error) {
		return NewNodeIn(pool, kc, net, rng, app, nid, ringID)
	}, nil
}
