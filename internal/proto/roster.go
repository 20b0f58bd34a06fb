package proto

// Roster is who is online: the entries added and not yet dead, in spawn
// order, plus the spawned/alive counts behind StatPeersSpawned and
// StatAlivePeers. An entry dies by turning its own Alive false and
// telling the roster with Drop; the roster costs it no field. Dead
// entries are forgotten — their slots cleared, so the roster is no
// reason for them to stay reachable — by an order-preserving compaction
// whenever the online set is asked for, and on Add once a quarter of
// the list is dead, which keeps Add amortised O(1) and, at a steady
// population, allocation-free. The zero value is an empty roster.
type Roster[T interface{ Alive() bool }] struct {
	online  []T
	spawned uint64
	alive   int
}

// Add appends x, alive, as the newest entry.
func (r *Roster[T]) Add(x T) {
	if dead := len(r.online) - r.alive; dead >= 16 && 4*dead >= len(r.online) {
		r.compact()
	}
	r.online = append(r.online, x)
	r.spawned++
	r.alive++
}

// Drop records that one entry's Alive has turned false.
func (r *Roster[T]) Drop() { r.alive-- }

// Online returns the live entries, oldest first. The slice is the
// roster's own: read it before the next Add. Entries that die while it
// is being read stay where they are, so indexes into it remain valid.
func (r *Roster[T]) Online() []T {
	r.compact()
	return r.online
}

// Spawned is the number of entries ever added.
func (r *Roster[T]) Spawned() uint64 { return r.spawned }

// Alive is the number of entries added and not dropped.
func (r *Roster[T]) Alive() int { return r.alive }

func (r *Roster[T]) compact() {
	if len(r.online) == r.alive {
		return
	}
	kept := r.online[:0]
	for _, x := range r.online {
		if x.Alive() {
			kept = append(kept, x)
		}
	}
	clear(r.online[len(kept):])
	r.online = kept
}
