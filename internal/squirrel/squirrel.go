// Package squirrel is the comparison baseline of the paper's
// evaluation: Squirrel (Iyer, Rowstron, Druschel, PODC 2002), the
// decentralized P2P web cache, in its *directory* (redirection)
// variant — the one the paper describes as sharing "some similarities
// with Flower-CDN wrt. the directory structure".
//
// Every participant joins one Chord ring at a uniformly hashed
// identifier. The *home node* of an object is the ring successor of
// hash(object). The home keeps a small directory of recent downloaders
// (delegates) of the object and redirects clients to a RANDOM delegate
// — no locality awareness, the property the paper's Fig. 5 exposes.
// The directory lives only at the home node: when the home fails, the
// directory is "abruptly lost" (Sec. 2), which is what breaks
// Squirrel's hit ratio under churn in Fig. 3.
//
// The deployment itself is internal/baseline's ring-directory driver;
// this package is Squirrel's parameters for it.
package squirrel

import (
	"flowercdn/internal/baseline"
	"flowercdn/internal/content"
	"flowercdn/internal/ids"
	"flowercdn/internal/proto"
)

// Driver is Squirrel.
var Driver = baseline.RingDirectory(baseline.RingSpec{
	Info: proto.Info{
		Name:    "squirrel",
		Summary: "Squirrel (PODC 2002): one Chord ring, per-object home directories, random redirection",
		Compare: true,
	},
	Router: baseline.ChordRouter,
	HomeKey: func(k content.Key) ids.ID {
		return ids.Hash2(uint64(uint32(k.Site)), uint64(uint32(k.Object)))
	},
	// PushSummaries stays off. A home redirects to a single random
	// delegate out of the 4 it remembers (the Squirrel paper's
	// numbers, which the driver fixes): the protocol was designed for
	// a stable corporate LAN and has no delegate-failure recovery and
	// no directory rebuild — exactly what the paper's churn
	// evaluation exposes.
})
