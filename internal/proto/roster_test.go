package proto

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

type rosterEntry struct {
	id   int
	dead bool
	// pad makes the entry big enough for its finalizer to be the only
	// thing that can prove it was collected.
	pad [64]byte
}

func (e *rosterEntry) Alive() bool { return !e.dead }

// kill is what every Roster entry does to die: flip its own Alive,
// then tell the roster.
func kill(r *Roster[*rosterEntry], e *rosterEntry) {
	e.dead = true
	r.Drop()
}

func entryIDs(es []*rosterEntry) []int {
	out := make([]int, len(es))
	for i, e := range es {
		out[i] = e.id
	}
	return out
}

func TestRosterKeepsSpawnOrderAcrossCompaction(t *testing.T) {
	var r Roster[*rosterEntry]
	if r.Alive() != 0 || r.Spawned() != 0 || len(r.Online()) != 0 {
		t.Fatal("zero Roster is not empty")
	}
	var all []*rosterEntry
	for i := 0; i < 200; i++ {
		e := &rosterEntry{id: i}
		all = append(all, e)
		r.Add(e)
		// Kill two of every three as we go, and now and then an old
		// survivor, so Add's own compaction runs many times with
		// survivors on both sides of every gap.
		if i%3 != 0 {
			kill(&r, e)
		}
		if i%30 == 29 {
			kill(&r, all[i-29+3])
		}
	}
	var want []int
	for _, e := range all {
		if !e.dead {
			want = append(want, e.id)
		}
	}
	got := entryIDs(r.Online())
	if len(got) != len(want) || r.Alive() != len(want) || r.Spawned() != 200 {
		t.Fatalf("online %d, Alive %d, Spawned %d; want %d, %d, 200", len(got), r.Alive(), r.Spawned(), len(want), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("online[%d] = %d, want %d: spawn order lost (%v)", i, got[i], want[i], got)
		}
	}
}

// Entries that die while Online's slice is being read stay where they
// are — the harness kills a random subset by index.
func TestRosterOnlineIsStableWhileEntriesDie(t *testing.T) {
	var r Roster[*rosterEntry]
	for i := 0; i < 40; i++ {
		r.Add(&rosterEntry{id: i})
	}
	online := r.Online()
	for _, j := range []int{3, 30, 17} {
		kill(&r, online[j])
	}
	if got := entryIDs(online); got[3] != 3 || got[17] != 17 || got[39] != 39 {
		t.Fatalf("slice moved under its reader: %v", got)
	}
	if r.Alive() != 37 || len(r.Online()) != 37 {
		t.Fatalf("Alive %d, online %d; want 37", r.Alive(), len(r.Online()))
	}
}

// The point of the type: a dead entry is unreachable from the roster,
// both after Online and after enough Adds, including through the slack
// of the backing array.
func TestRosterForgetsTheDead(t *testing.T) {
	var r Roster[*rosterEntry]
	var collected atomic.Int32 // finalizers run on their own goroutine
	spawn := func(id int) {
		e := &rosterEntry{id: id}
		runtime.SetFinalizer(e, func(*rosterEntry) { collected.Add(1) })
		r.Add(e)
	}
	// collect forces collections until want entries have been finalized
	// (a finalizer runs some time after the cycle that found its object
	// unreachable) or it is plain that they will not be.
	collect := func(want int32) int32 {
		for i := 0; i < 200 && collected.Load() < want; i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		return collected.Load()
	}
	for i := 0; i < 100; i++ {
		spawn(i)
	}
	for _, e := range r.Online()[20:80] {
		kill(&r, e)
	}
	r.Online()
	if got := collect(60); got != 60 {
		t.Fatalf("%d of 60 dead entries collected after Online()", got)
	}
	// Steady churn with no Online call at all: Add alone must keep the
	// dead from piling up.
	collected.Store(0)
	for i := 100; i < 1100; i++ {
		kill(&r, r.online[len(r.online)-r.alive]) // the oldest still alive
		spawn(i)
	}
	if retained := 1000 - int(collect(1000-int32(r.Alive())/2)); retained > r.Alive()/2 {
		t.Fatalf("%d dead entries still reachable beside %d live ones", retained, r.Alive())
	}
	runtime.KeepAlive(&r)
}

func TestRosterAddDoesNotAllocateAtSteadyPopulation(t *testing.T) {
	var r Roster[*rosterEntry]
	pool := make([]*rosterEntry, 5000)
	for i := range pool {
		pool[i] = &rosterEntry{id: i}
	}
	next := 0
	churn := func() {
		e := pool[next%len(pool)]
		next++
		e.dead = false
		r.Add(e)
		if r.Alive() > 300 {
			kill(&r, pool[next-301]) // the oldest still alive
		}
	}
	for i := 0; i < 2000; i++ { // reach the population and the backing array's final size
		churn()
	}
	if a := testing.AllocsPerRun(2000, churn); a != 0 {
		t.Fatalf("%.2f allocations per Add at a steady population of 300", a)
	}
}
