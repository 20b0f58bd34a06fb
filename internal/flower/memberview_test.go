package flower

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"flowercdn/internal/chord"
	"flowercdn/internal/content"
	"flowercdn/internal/gossip"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
)

// loneDirectory founds a one-member D-ring and freezes it, so that only
// the test changes the directory's view.
func loneDirectory(t *testing.T, seed uint64) (*fixture, *Peer) {
	t.Helper()
	f := newFixture(t, seed, nil)
	dir := f.sys.SpawnSeed(f.pop.At(0, 0)).(*Peer)
	if dir.Role() != RoleDirectory {
		t.Fatalf("lone seed: role %v, want directory", dir.Role())
	}
	f.freeze()
	f.run(runtime.Minute)
	return f, dir
}

// mapView is the member view as a map from id to member — the design
// the id-ordered slice replaced — with the directory's operations over
// it as they were. TestMemberViewMatchesMapModel runs both side by side.
type mapView struct {
	members map[runtime.NodeID]*mapMember
	index   content.Holders
}

type mapMember struct {
	lastSeen int64
	keys     map[content.Key]struct{}
}

func (v *mapView) admit(nid runtime.NodeID, now int64) *mapMember {
	m, ok := v.members[nid]
	if !ok {
		m = &mapMember{keys: make(map[content.Key]struct{})}
		v.members[nid] = m
	}
	m.lastSeen = now
	return m
}

func (v *mapView) push(nid runtime.NodeID, keys []content.Key, now int64) {
	m := v.admit(nid, now)
	for _, k := range keys {
		m.keys[k] = struct{}{}
		v.index.Add(k, nid)
	}
}

func (v *mapView) remove(nid runtime.NodeID) {
	m, ok := v.members[nid]
	if !ok {
		return
	}
	delete(v.members, nid)
	for k := range m.keys {
		v.index.Remove(k, nid)
	}
}

func (v *mapView) sweep(cutoff int64) {
	for nid, m := range v.members {
		if m.lastSeen < cutoff {
			v.remove(nid)
		}
	}
}

func (v *mapView) freshest() runtime.NodeID {
	var best runtime.NodeID = runtime.None
	var bestSeen int64 = -1
	for nid, m := range v.members {
		if m.lastSeen > bestSeen || (m.lastSeen == bestSeen && nid < best) {
			best, bestSeen = nid, m.lastSeen
		}
	}
	return best
}

func (v *mapView) handoff(self runtime.NodeID, h handoffMsg, now int64) {
	for _, nid := range h.Members {
		if nid != self {
			v.admit(nid, now)
		}
	}
	for k, ps := range h.Index {
		for _, nid := range ps {
			if nid == self {
				continue
			}
			v.index.Add(k, nid)
			if m, ok := v.members[nid]; ok {
				m.keys[k] = struct{}{}
			}
		}
	}
}

// viewSeed is viewSeed over the map: collect every id but exclude, sort
// them, shuffle all of them with rng and keep eight.
func (v *mapView) viewSeed(p *Peer, rng *rnd.RNG, exclude runtime.NodeID) []gossip.Entry {
	const seedSize = 8
	var nids []runtime.NodeID
	for nid := range v.members {
		if nid != exclude {
			nids = append(nids, nid)
		}
	}
	slices.Sort(nids)
	rng.Shuffle(len(nids), func(i, j int) { nids[i], nids[j] = nids[j], nids[i] })
	if len(nids) > seedSize {
		nids = nids[:seedSize]
	}
	seed := make([]gossip.Entry, 0, len(nids)+len(p.dir.oldSummaries)+1)
	if p.nid != exclude {
		seed = append(seed, gossip.Entry{Peer: p.nid, Meta: p.selfMeta()})
	}
	for _, nid := range nids {
		seed = append(seed, gossip.Entry{
			Peer: nid,
			Meta: ContactMeta{Summary: exactSummary(v.members[nid].keys), Dir: p.dirInfo},
		})
	}
	if len(seed) < seedSize {
		for _, e := range p.dir.oldSummaries {
			if len(seed) >= seedSize {
				break
			}
			if e.Peer != exclude {
				seed = append(seed, e)
			}
		}
	}
	return seed
}

// TestMemberViewMatchesMapModel drives a directory's member view and the
// map it replaced through the same random steps: arrivals and known
// members admitted, pushes, keepalives, sweeps that expire members,
// removals, promotions, handoffs and view seeds. After every step both
// must hold the same members with the same freshness and keys, pick the
// same freshest member and index the same holders; a view seed drawn
// from two same-seeded generators must return the same contacts, and
// the generators' next draws must agree, so both consumed as many.
func TestMemberViewMatchesMapModel(t *testing.T) {
	const seeds, steps = 20, 3000
	keys := make([]content.Key, 24)
	for i := range keys {
		keys[i] = content.Key{Site: 0, Object: content.ObjectID(i)}
	}
	f, dir := loneDirectory(t, 40)
	d := dir.dir
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := rnd.New(seed)
		d.members, d.index = nil, content.Holders{}
		v := &mapView{members: map[runtime.NodeID]*mapMember{}}
		// Old-summary contacts back a small view until they expire.
		d.oldSummaries = nil
		for i := 0; i < 12; i++ {
			d.oldSummaries = append(d.oldSummaries, gossip.Entry{
				Peer: runtime.NodeID(500 + i), Meta: ContactMeta{Dir: dir.dirInfo},
			})
		}
		d.summaryDeadline = f.eng.Now() + 2*runtime.Hour

		next := runtime.NodeID(1000)
		arrival := func() runtime.NodeID { next++; return next }
		known := func() runtime.NodeID {
			if len(d.members) == 0 {
				return arrival()
			}
			return d.members[rng.Intn(len(d.members))].nid
		}
		anyID := func() runtime.NodeID {
			switch rng.Intn(3) {
			case 0:
				return arrival()
			case 1:
				return runtime.NodeID(1 + rng.Intn(int(next))) // an old id, a member or not
			default:
				return known()
			}
		}
		someKeys := func() []content.Key {
			ks := make([]content.Key, 1+rng.Intn(4))
			for i := range ks {
				ks[i] = keys[rng.Intn(len(keys))]
			}
			return ks
		}

		for step := 0; step < steps; step++ {
			now := f.eng.Now()
			var op string
			switch r := rng.Intn(100); {
			case r < 25:
				op = "admit"
				nid := anyID()
				dir.onKeepalive(nid, keepaliveReq{})
				v.admit(nid, now)
			case r < 40:
				op = "push"
				nid, ks := anyID(), someKeys()
				dir.onPush(nid, pushReq{Keys: ks})
				v.push(nid, ks, now)
			case r < 52:
				op = "keepalive"
				nid := known()
				dir.onKeepalive(nid, keepaliveReq{})
				v.admit(nid, now)
			case r < 60:
				op = "sweep"
				dt := rng.Int63n(2 * runtime.Minute)
				if len(d.members) > 0 && rng.Bool(0.25) {
					// Sweep exactly at a member's expiry boundary.
					dt = max(0, d.members[rng.Intn(len(d.members))].lastSeen+dir.memberTTL()-now)
				}
				f.run(dt)
				dir.directorySweep()
				v.sweep(f.eng.Now() - dir.memberTTL())
			case r < 66:
				op = "remove"
				nid := anyID()
				dir.removeMember(nid)
				v.remove(nid)
			case r < 70:
				op = "promoted"
				nid := known()
				dir.onPromoted(nid, promotedMsg{NewDir: chord.Entry{Node: nid, ID: d.pos + 1}})
				v.remove(nid)
			case r < 73:
				op = "handoff"
				h := handoffMsg{Index: map[content.Key][]runtime.NodeID{}}
				for i := rng.Intn(6); i > 0; i-- {
					h.Members = append(h.Members, anyID())
				}
				if rng.Bool(0.3) {
					h.Members = append(h.Members, dir.nid)
				}
				for _, k := range someKeys() {
					h.Index[k] = append(h.Index[k], anyID())
					if rng.Bool(0.2) {
						h.Index[k] = append(h.Index[k], dir.nid)
					}
				}
				dir.adoptView(h)
				v.handoff(dir.nid, h, now)
			default:
				op = "viewSeed"
				var exclude runtime.NodeID
				switch rng.Intn(4) {
				case 0:
					exclude = known()
				case 1:
					exclude = dir.nid
				case 2:
					exclude = runtime.NodeID(500 + rng.Intn(12)) // an old-summary contact
				default:
					exclude = arrival()
				}
				s := rng.Uint64()
				ref := rnd.New(s)
				f.sys.rng = rnd.New(s)
				want := v.viewSeed(dir, ref, exclude)
				if got := dir.viewSeed(exclude); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: viewSeed(%d) =\n%v\nmap view gives\n%v", seed, step, exclude, got, want)
				}
				if a, b := f.sys.rng.Uint64(), ref.Uint64(); a != b {
					t.Fatalf("seed %d step %d: viewSeed(%d) consumed other draws than the map view's", seed, step, exclude)
				}
			}

			for i, m := range d.members {
				if i > 0 && d.members[i-1].nid >= m.nid {
					t.Fatalf("seed %d step %d (%s): view not in ascending id order at %d", seed, step, op, i)
				}
				w, ok := v.members[m.nid]
				if !ok || w.lastSeen != m.lastSeen || !maps.Equal(w.keys, m.keys) {
					t.Fatalf("seed %d step %d (%s): member %d differs from the map view's", seed, step, op, m.nid)
				}
			}
			if d.MemberCount() != len(v.members) {
				t.Fatalf("seed %d step %d (%s): %d members, map view has %d", seed, step, op, d.MemberCount(), len(v.members))
			}
			if a, b := d.freshestMember(), v.freshest(); a != b {
				t.Fatalf("seed %d step %d (%s): freshest member %d, map view picks %d", seed, step, op, a, b)
			}
			for _, k := range keys {
				if a, b := d.index.Of(k), v.index.Of(k); !slices.Equal(a, b) {
					t.Fatalf("seed %d step %d (%s): %v indexed at %v, map view has %v", seed, step, op, k, a, b)
				}
			}
		}
	}
}
