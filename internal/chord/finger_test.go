package chord

import (
	"slices"
	"testing"

	"flowercdn/internal/ids"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/simrt"
	"flowercdn/internal/topology"
)

// recordingNet notes whom a node sends requests to and sends nothing.
type recordingNet struct {
	runtime.Transport
	requested []runtime.NodeID
}

func (r *recordingNet) Request(_, to runtime.NodeID, _ any, _ int64, _ func(any, error)) {
	r.requested = append(r.requested, to)
}

// scanClosestPreceding is closestPreceding as it was before the finger
// index: the whole table top-down, then the successor list.
func scanClosestPreceding(n *Node, key ids.ID) Entry {
	best := NoEntry
	consider := func(e Entry) {
		if !e.Valid() || e.Node == n.self.Node {
			return
		}
		if !ids.Between(e.ID, n.self.ID, key) {
			return
		}
		if !best.Valid() || ids.Between(best.ID, n.self.ID, e.ID) {
			best = e
		}
	}
	for i := len(n.fingers) - 1; i >= 0; i-- {
		consider(n.fingers[i])
	}
	for _, s := range n.succs {
		consider(s)
	}
	return best
}

// scanPingTargets is pingFingers' choice of targets as it was before
// the finger index, deduplicating the whole table on every firing.
func scanPingTargets(n *Node, nextPing *int) []runtime.NodeID {
	var nodes []Entry
	for _, f := range n.fingers {
		if f.Valid() && f.Node != n.self.Node && !containsNode(nodes, f.Node) {
			nodes = append(nodes, f)
		}
	}
	if len(nodes) == 0 {
		return nil
	}
	start := *nextPing % len(nodes)
	count := min(fingersPerPing, len(nodes))
	*nextPing += count
	var out []runtime.NodeID
	for k := 0; k < count; k++ {
		out = append(out, nodes[(start+k)%len(nodes)].Node)
	}
	return out
}

// TestFingerIndexMatchesFullScan drives random interleavings of finger
// writes, evictions, routing steps and ping rounds against one node and
// checks the indexed code against the full-table scans it replaced:
// same next hop, same ping targets in the same order. The tables have
// gaps, entries for the node itself, one node in many slots, one node
// at two positions (a peer that moved), and two nodes at one position
// (D-ring re-filled it), where only consideration order breaks the tie.
func TestFingerIndexMatchesFullScan(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rnd.New(seed)
		net := &recordingNet{Transport: simrt.New(topology.MustNew(topology.DefaultConfig(), rng)).Net()}
		const self = runtime.NodeID(1)
		n, err := NewNode(DefaultConfig(), net, rng, &testPeer{}, self, ids.ID(rng.Uint64()))
		if err != nil {
			t.Fatal(err)
		}
		pool := []Entry{NoEntry, NoEntry, n.self}
		for node := runtime.NodeID(2); node <= 9; node++ {
			pool = append(pool, Entry{Node: node, ID: ids.ID(rng.Uint64())})
		}
		pool = append(pool,
			Entry{Node: 10, ID: pool[3].ID}, // a second node at node 2's position
			Entry{Node: 11, ID: pool[4].ID}, // and a third
			Entry{Node: 11, ID: pool[3].ID},
			Entry{Node: 5, ID: ids.ID(rng.Uint64())}, // node 5 again, elsewhere
		)
		pick := func() Entry { return pool[rng.Intn(len(pool))] }
		refNextPing := 0
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				i, e := rng.Intn(ids.Bits), pick()
				same := n.fingers != nil && n.fingers[i] == e // the first write makes the table
				fresh := !n.fingerStale
				n.setFinger(i, e)
				if same && fresh && n.fingerStale {
					t.Fatalf("seed %d step %d: rewriting finger %d with its own value staled the index", seed, step, i)
				}
			case op == 3:
				// A run of slots takes one value, as after a join.
				e := pick()
				for i, end := rng.Intn(ids.Bits), rng.Intn(ids.Bits); i <= end; i++ {
					n.setFinger(i, e)
				}
			case op == 4:
				n.clearFingersFor(pick())
			case op == 5:
				var list []Entry // a published list is never written again
				for k := rng.Intn(4); k > 0; k-- {
					list = append(list, pick())
				}
				n.succs = list
			case op < 9:
				key := ids.ID(rng.Uint64())
				if rng.Intn(2) == 0 {
					key = pick().ID + ids.ID(rng.Intn(3)) - 1
				}
				if got, want := n.closestPreceding(key), scanClosestPreceding(n, key); got != want {
					t.Fatalf("seed %d step %d: closestPreceding(%s) = %v, full scan gives %v\nfingers %v\nsuccs %v",
						seed, step, key, got, want, n.fingers, n.succs)
				}
			default:
				want := scanPingTargets(n, &refNextPing)
				net.requested = net.requested[:0]
				n.pingFingers()
				if !slices.Equal(net.requested, want) || n.nextPing != refNextPing {
					t.Fatalf("seed %d step %d: pingFingers probed %v (cursor %d), full scan gives %v (cursor %d)\nfingers %v",
						seed, step, net.requested, n.nextPing, want, refNextPing, n.fingers)
				}
			}
		}
	}
}
