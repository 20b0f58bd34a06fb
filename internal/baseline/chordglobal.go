package baseline

import "flowercdn/internal/proto"

// chord-global is Squirrel's ring directory with one home per website and
// content-summary refreshes — directory caching without Flower-CDN's
// petals (see the package comment).
func init() {
	RegisterRingDirectory(RingSpec{
		Info: proto.Info{
			Name:    "chord-global",
			Summary: "one global Chord directory per website, no locality petals",
			Compare: true,
			Order:   3,
		},
		Router:        ChordRouter,
		HomeKey:       SiteHome("cg-site-%d"),
		PushSummaries: true,
		PeerStream:    "cg-peer-%d",
		RingID:        "cg-peer-%d",
		RouterStream:  "chord",
	})
}
