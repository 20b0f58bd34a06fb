package baseline

import "flowercdn/internal/proto"

// ChordGlobal is Squirrel's ring directory with one home per website and
// content-summary refreshes — directory caching without Flower-CDN's
// petals (see the package comment).
var ChordGlobal = RingDirectory(RingSpec{
	Info: proto.Info{
		Name:    "chord-global",
		Summary: "one global Chord directory per website, no locality petals",
		Compare: true,
	},
	Router:        ChordRouter,
	HomeKey:       SiteHome("cg-site-%d"),
	PushSummaries: true,
})
