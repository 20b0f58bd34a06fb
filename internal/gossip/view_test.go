package gossip

import (
	"testing"

	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
)

// mapView is the view as it was before it became one slice: entries in
// insertion order plus a map from peer to position, re-indexed on every
// removal, and a sample that draws a full permutation with rng.Perm.
// TestViewMatchesMapModel runs it beside the Protocol.
type mapView struct {
	me   runtime.NodeID
	view []Entry
	idx  map[runtime.NodeID]int32
}

func (v *mapView) removeAt(i int) {
	delete(v.idx, v.view[i].Peer)
	copy(v.view[i:], v.view[i+1:])
	v.view = v.view[:len(v.view)-1]
	for j := i; j < len(v.view); j++ {
		v.idx[v.view[j].Peer] = int32(j)
	}
}

func (v *mapView) remove(peer runtime.NodeID) {
	if i, ok := v.idx[peer]; ok {
		v.removeAt(int(i))
	}
}

func (v *mapView) insert(e Entry) {
	if e.Peer == v.me || e.Peer == runtime.None {
		return
	}
	if i, ok := v.idx[e.Peer]; ok {
		cur := &v.view[i]
		if e.Age <= cur.Age {
			cur.Age = e.Age
			if e.Meta != nil {
				cur.Meta = e.Meta
			}
		}
		return
	}
	v.idx[e.Peer] = int32(len(v.view))
	v.view = append(v.view, e)
}

func (v *mapView) updateMeta(peer runtime.NodeID, meta any) {
	if i, ok := v.idx[peer]; ok {
		v.view[i].Meta = meta
	}
}

// tick ages the view and returns the shuffle target, as Tick does
// before it sends.
func (v *mapView) tick() runtime.NodeID {
	for i := range v.view {
		v.view[i].Age++
	}
	best := 0
	for i := range v.view {
		if v.view[i].Age > v.view[best].Age {
			best = i
		}
	}
	return v.view[best].Peer
}

func (v *mapView) sample(rng *rnd.RNG, exclude runtime.NodeID, includeSelf bool, self any) []Entry {
	out := make([]Entry, 0, shuffleSize)
	if includeSelf {
		out = append(out, Entry{Peer: v.me, Meta: self})
	}
	for _, i := range rng.Perm(len(v.view)) {
		if len(out) >= shuffleSize {
			break
		}
		if v.view[i].Peer == exclude {
			continue
		}
		out = append(out, v.view[i])
	}
	return out
}

// modelApp describes itself with a fixed value and ignores callbacks.
type modelApp struct{}

func (modelApp) SelfDescriptor() any                { return "self" }
func (modelApp) OnExchange(runtime.NodeID, []Entry) {}
func (modelApp) OnContactDead(runtime.NodeID)       {}

// captureNet keeps the one shuffle a Tick sends, so the test can answer
// it — or fail it — by hand. Only Clock and Request are implemented.
type captureNet struct {
	runtime.Net
	to  runtime.NodeID
	req shuffleReq
	cb  func(any, error)
}

func (n *captureNet) Clock() runtime.Clock { return nil }

func (n *captureNet) Request(_, to runtime.NodeID, req any, _ int64, cb func(any, error)) {
	n.to, n.req, n.cb = to, req.(shuffleReq), cb
}

func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestViewMatchesMapModel drives a Protocol's view and the map-indexed
// view it replaced through the same random steps: contacts added one at
// a time and in batches (with self, duplicates and runtime.None among
// them), merges through HandleRequest, removals, metadata updates,
// ticks answered or failed, and samples with the
// exclude in the view and out of it. Views pass 64 entries, so a sample
// also shuffles positions beyond its stack buffer. After every step
// both views must hold the same peers, ages and metadata in the same
// order and answer Contains and Meta alike; a sample drawn from two
// same-seeded generators must return the same entries, and the
// generators' next draws must agree, so both consumed as many.
func TestViewMatchesMapModel(t *testing.T) {
	const seeds, steps, pool = 20, 3000, 150
	const me = runtime.NodeID(7)
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := rnd.New(seed)
		net := &captureNet{}
		g, err := New(DefaultConfig(), net, rnd.New(0), me, modelApp{})
		if err != nil {
			t.Fatal(err)
		}
		v := &mapView{me: me, idx: map[runtime.NodeID]int32{}}
		metas, peak := 0, 0
		meta := func() any {
			if rng.Bool(0.2) {
				return nil
			}
			metas++
			return metas
		}
		anyPeer := func() runtime.NodeID {
			switch r := rng.Intn(40); {
			case r == 0:
				return runtime.None
			case r == 1:
				return me
			default:
				return runtime.NodeID(1 + rng.Intn(pool))
			}
		}
		entries := func(n int) []Entry {
			es := make([]Entry, n)
			for i := range es {
				es[i] = Entry{Peer: anyPeer(), Age: int32(rng.Intn(8)), Meta: meta()}
				if i > 0 && rng.Bool(0.1) {
					es[i].Peer = es[rng.Intn(i)].Peer // a duplicate in the batch
				}
			}
			return es
		}

		for step := 0; step < steps; step++ {
			s := rng.Uint64()
			ref := rnd.New(s)
			g.rng = rnd.New(s)
			var op string
			switch r := rng.Intn(100); {
			case r < 30:
				op = "AddContact"
				e := Entry{Peer: anyPeer(), Meta: meta()}
				g.AddContact(e.Peer, e.Meta)
				v.insert(e)
			case r < 38:
				op = "AddContacts"
				es := entries(rng.Intn(12))
				for _, e := range es {
					v.insert(Entry{Peer: e.Peer, Meta: e.Meta})
				}
				g.AddContacts(es) // takes es over
			case r < 53:
				op = "HandleRequest"
				from := anyPeer()
				es := entries(rng.Intn(8))
				resp, err, handled := g.HandleRequest(from, shuffleReq{From: from, Entries: es})
				if !handled || err != nil {
					t.Fatalf("seed %d step %d: HandleRequest = %v, %v", seed, step, err, handled)
				}
				want := v.sample(ref, from, true, "self")
				for _, e := range es {
					v.insert(e)
				}
				if got := resp.(shuffleResp).Entries; !sameEntries(got, want) {
					t.Fatalf("seed %d step %d: HandleRequest replied\n%v\nmap view gives\n%v", seed, step, got, want)
				}
			case r < 60:
				op = "RemoveContact"
				peer := anyPeer()
				g.RemoveContact(peer)
				v.remove(peer)
			case r < 66:
				op = "UpdateMeta"
				peer, m := anyPeer(), meta()
				g.UpdateMeta(peer, m)
				v.updateMeta(peer, m)
			case r < 80:
				op = "Tick"
				if len(v.view) == 0 {
					g.Tick() // nothing to shuffle with: sends nothing
					break
				}
				net.cb = nil
				g.Tick()
				target := v.tick()
				want := v.sample(ref, target, true, "self")
				if net.cb == nil || net.to != target || !sameEntries(net.req.Entries, want) {
					t.Fatalf("seed %d step %d: Tick sent %v to %d, map view sends\n%v to %d", seed, step, net.req.Entries, net.to, want, target)
				}
				if rng.Bool(0.3) {
					net.cb(nil, runtime.ErrTimeout)
					v.remove(target)
					break
				}
				es := entries(rng.Intn(8))
				net.cb(shuffleResp{Entries: es}, nil)
				for _, e := range es {
					v.insert(e)
				}
				if i, ok := v.idx[target]; ok {
					v.view[i].Age = 0
				}
			default:
				op = "sample"
				exclude := anyPeer()
				if len(v.view) > 0 && rng.Bool(0.5) {
					exclude = v.view[rng.Intn(len(v.view))].Peer
				}
				includeSelf := rng.Bool(0.5)
				got, want := g.sample(exclude, includeSelf), v.sample(ref, exclude, includeSelf, "self")
				if !sameEntries(got, want) {
					t.Fatalf("seed %d step %d: sample(%d, %v) =\n%v\nmap view gives\n%v", seed, step, exclude, includeSelf, got, want)
				}
			}

			if a, b := g.rng.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("seed %d step %d (%s): consumed other draws than the map view", seed, step, op)
			}
			peak = max(peak, len(v.view))
			if !sameEntries(g.View(), v.view) {
				t.Fatalf("seed %d step %d (%s): view\n%v\nmap view holds\n%v", seed, step, op, g.View(), v.view)
			}
			for peer := runtime.None; peer <= pool; peer++ {
				_, in := v.idx[peer]
				var m any
				if in {
					m = v.view[v.idx[peer]].Meta
				}
				if g.Contains(peer) != in || g.Meta(peer) != m {
					t.Fatalf("seed %d step %d (%s): Contains/Meta(%d) = %v/%v, map view has %v/%v", seed, step, op, peer, g.Contains(peer), g.Meta(peer), in, m)
				}
			}
		}
		if peak <= 64 {
			t.Fatalf("seed %d: view peaked at %d entries; the stack buffer's overflow path went untested", seed, peak)
		}
	}
}
