package trace

import (
	"testing"

	"flowercdn/internal/runtime"
)

// TestAnalyzeHandBuilt checks the breakdown of two hand-built records
// against sums worked out by hand, with and without a latency model.
func TestAnalyzeHandBuilt(t *testing.T) {
	recs := []*Record{
		{Loc: 0, Hops: []Hop{
			{Kind: HopIssue, Node: 1, Loc: 0, At: 0},
			{Kind: HopRoute, Node: 2, Loc: 1, At: 10},
			{Kind: HopRoute, Node: 3, Loc: 1, At: 5}, // before its predecessor: a delta of 0
			{Kind: HopHome, Node: 4, Loc: 0, At: 30},
			{Kind: HopProbe, Node: 5, Loc: 0, At: 40, FalsePositive: true},
			{Kind: HopServe, Node: 6, Loc: 0, At: 70}, // served in the client's locality
		}},
		nil,
		{Loc: 1, Hops: []Hop{
			{Kind: HopIssue, Node: 7, Loc: 1, At: 100},
			{Kind: HopProbe, Node: 9, Loc: 1, At: 120},
			{Kind: HopServe, Node: 8, Loc: 0, At: 160}, // served elsewhere
		}},
		{Loc: 0}, // no hops: not a record the breakdown counts
	}
	// The model says 100 ms from 1 to 2, more than the 10 ms the hop
	// took, so the link share is clamped to the delta; it says -1 from
	// 3 to 4, which counts as 0; 3 ms anywhere else.
	lat := func(from, to runtime.NodeID) int64 {
		switch {
		case from == 1 && to == 2:
			return 100
		case from == 3 && to == 4:
			return -1
		}
		return 3
	}
	want := Breakdown{
		Records: 2,
		Hops:    9,
		ByKind: [numHopKinds]KindStats{
			HopIssue: {Hops: 2},
			HopRoute: {Hops: 2, TotalMs: 10, LinkMs: 10},
			HopHome:  {Hops: 1, TotalMs: 25, QueueMs: 25},
			HopProbe: {Hops: 2, TotalMs: 30, LinkMs: 6, QueueMs: 24},
			HopServe: {Hops: 2, TotalMs: 70, LinkMs: 6, QueueMs: 64},
		},
		MeanRouteHops:  1,
		WithinLocality: 0.5,
		FalsePositives: 1,
		MeanTotalMs:    65,
		Split:          true,
	}
	if got := Analyze(recs, lat); got != want {
		t.Errorf("with a latency model:\n got %+v\nwant %+v", got, want)
	}

	// Without a model the totals stand and the link/queue columns stay 0.
	want.Split = false
	for k := range want.ByKind {
		want.ByKind[k].LinkMs, want.ByKind[k].QueueMs = 0, 0
	}
	if got := Analyze(recs, nil); got != want {
		t.Errorf("without a latency model:\n got %+v\nwant %+v", got, want)
	}

	if got := Analyze(nil, nil); got != (Breakdown{}) {
		t.Errorf("no records: %+v, want the zero breakdown", got)
	}
}
