package content

import (
	"slices"
	"testing"

	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
)

// TestHoldersMatchesModel drives Holders and a naive reference — a map
// of freshly built slices — through the same random histories of Add,
// Remove and Of over a few keys and holders, for every bound from
// unbounded to 6, and requires the same lists at every step: distinct
// holders, oldest first, the newest Bound kept, a re-added holder left
// in place, and Len counting only keys that still have a holder. It
// opens with the ring home's eviction case (the newest four of twenty
// stay; a known one is not re-added).
func TestHoldersMatchesModel(t *testing.T) {
	k := Key{Site: 0, Object: 1}
	home := Holders{Bound: 4}
	for i := 0; i < 20; i++ {
		home.Add(k, runtime.NodeID(100+i))
	}
	want := []runtime.NodeID{116, 117, 118, 119}
	if !slices.Equal(home.Of(k), want) {
		t.Fatalf("entry holds %v, want the newest four %v", home.Of(k), want)
	}
	home.Add(k, 117)
	if !slices.Equal(home.Of(k), want) {
		t.Fatalf("re-adding a known holder changed the entry to %v", home.Of(k))
	}

	const steps = 5000
	for bound := 0; bound <= 6; bound++ {
		for seed := uint64(1); seed <= 24; seed++ {
			rng := rnd.New(seed)
			keys, nids := 1+rng.Intn(8), 1+rng.Intn(12)
			h := Holders{Bound: bound}
			ref := map[Key][]runtime.NodeID{}
			for step := 0; step < steps; step++ {
				k := Key{Site: SiteID(rng.Intn(2)), Object: ObjectID(rng.Intn(keys))}
				nid := runtime.NodeID(rng.Intn(nids))
				switch op := rng.Intn(10); {
				case op < 5:
					known := slices.Contains(ref[k], nid)
					before := slices.Clone(h.Of(k))
					h.Add(k, nid)
					if known {
						if !slices.Equal(h.Of(k), before) {
							t.Fatalf("bound %d seed %d step %d: re-adding %d moved %v to %v", bound, seed, step, nid, before, h.Of(k))
						}
						break
					}
					ref[k] = append(slices.Clone(ref[k]), nid)
					if bound > 0 && len(ref[k]) > bound {
						ref[k] = ref[k][len(ref[k])-bound:]
					}
				case op < 8:
					h.Remove(k, nid)
					if i := slices.Index(ref[k], nid); i >= 0 {
						ref[k] = slices.Delete(slices.Clone(ref[k]), i, i+1)
					}
				default:
					if got := h.Of(k); !slices.Equal(got, ref[k]) {
						t.Fatalf("bound %d seed %d step %d: Of(%v) = %v, model %v", bound, seed, step, k, got, ref[k])
					}
				}
				nonEmpty := 0
				for rk, rs := range ref {
					got := h.Of(rk)
					if !slices.Equal(got, rs) {
						t.Fatalf("bound %d seed %d step %d: Of(%v) = %v, model %v", bound, seed, step, rk, got, rs)
					}
					if bound > 0 && len(got) > bound {
						t.Fatalf("bound %d seed %d step %d: %v holds %d", bound, seed, step, rk, len(got))
					}
					if len(slices.Compact(slices.Sorted(slices.Values(got)))) != len(got) {
						t.Fatalf("bound %d seed %d step %d: duplicate holders %v", bound, seed, step, got)
					}
					if len(rs) > 0 {
						nonEmpty++
					}
				}
				if h.Len() != nonEmpty {
					t.Fatalf("bound %d seed %d step %d: Len = %d, model %d", bound, seed, step, h.Len(), nonEmpty)
				}
			}
		}
	}
}
