package gossip

import (
	"testing"

	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
)

// allocView returns a protocol whose view holds peers 1…n, each with a
// boxed metadata value.
func allocView(t *testing.T, n int) *Protocol {
	t.Helper()
	g, err := New(DefaultConfig(), &captureNet{}, rnd.New(1), runtime.NodeID(n+1), modelApp{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		g.AddContact(runtime.NodeID(i), &Entry{Peer: runtime.NodeID(i)})
	}
	return g
}

// TestSampleAllocs pins a shuffle sample to one object, the slice it
// returns: the view's positions are shuffled on the stack, or past 64
// entries in the protocol's own buffer, made once at the view's length
// and kept. Before, an rng.Perm of the whole view made every sample two.
func TestSampleAllocs(t *testing.T) {
	for n, want := range map[int]float64{9: 1, 60: 1, 150: 1} {
		g := allocView(t, n)
		if got := testing.AllocsPerRun(100, func() { g.sample(runtime.NodeID(3), true) }); got != want {
			t.Errorf("sample over %d entries allocates %v objects, want %v", n, got, want)
		}
	}
}

// TestAddContactsAllocs pins a joining peer's seeding — a directory's
// 8 members plus the directory itself into an empty view — to zero
// objects: the view adopts the seed slice the directory built for it.
func TestAddContactsAllocs(t *testing.T) {
	g := allocView(t, 0)
	seed := make([]Entry, 9)
	for i := range seed {
		seed[i] = Entry{Peer: runtime.NodeID(100 + i), Meta: &Entry{}}
	}
	got := testing.AllocsPerRun(100, func() {
		g.view = nil
		g.AddContacts(seed)
	})
	if got != 0 {
		t.Errorf("AddContacts of a 9-entry seed allocates %v objects, want 0", got)
	}
}

// TestViewLookupsDoNotAllocate pins the operations on known peers to
// zero: a lookup, a removal (re-added into the view's own capacity) and
// a merge of a contact already in the view.
func TestViewLookupsDoNotAllocate(t *testing.T) {
	g := allocView(t, 12)
	meta := g.Meta(5)
	for name, f := range map[string]func(){
		"Contains":      func() { g.Contains(7) },
		"RemoveContact": func() { g.RemoveContact(5); g.AddContact(5, meta) },
		"merge":         func() { g.insert(Entry{Peer: 9, Age: 0, Meta: meta}) },
	} {
		if got := testing.AllocsPerRun(100, f); got != 0 {
			t.Errorf("%s allocates %v objects, want 0", name, got)
		}
	}
}
