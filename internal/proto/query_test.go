package proto

import (
	"testing"

	"flowercdn/internal/content"
	"flowercdn/internal/metrics"
	"flowercdn/internal/rnd"
	"flowercdn/internal/sim"
	"flowercdn/internal/workload"
)

// askedSession is a Session that records what it is asked.
type askedSession struct {
	joined bool
	asked  int
	last   content.Key
	killed bool
}

func (s *askedSession) Query(key content.Key) bool {
	s.asked++
	s.last = key
	return s.joined
}

func (s *askedSession) Kill() { s.killed = true }

// queryWorld is one engine, a two-site workload of which site 0 is
// active, and the query process over them.
func queryWorld(t *testing.T) (*sim.Engine, *metrics.Counters, *Queries) {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Sites, cfg.ActiveSites, cfg.ObjectsPerSite = 2, 1, 50
	work, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	counters := metrics.NewCounters()
	return eng, counters, NewQueries(eng.Clock(), work, metrics.NewPipeline(counters), nil)
}

// TestQueryTimer: an active-site session is asked for objects of its
// site it lacks, about one per mean interval; a session that has not
// joined counts every tick as unjoined; a full store is asked for
// nothing and a non-active site never queries; a stopped timer leaves
// nothing armed and no way back to the session.
func TestQueryTimer(t *testing.T) {
	eng, counters, q := queryWorld(t)
	if q.Start(Identity{Site: 1, Store: content.NewStore(), Work: rnd.New(1)}, &askedSession{}) != nil {
		t.Fatal("a non-active site's session got a query timer")
	}
	store, full := content.NewStore(), content.NewStore()
	store.Add(content.Key{Site: 0, Object: 0}) // the most popular object: asked for at once otherwise
	for o := 0; o < 50; o++ {
		full.Add(content.Key{Site: 0, Object: content.ObjectID(o)})
	}
	joined, waiting, sated := &askedSession{joined: true}, &askedSession{}, &askedSession{}
	tj := q.Start(Identity{Site: 0, Store: store, Work: rnd.New(2)}, joined)
	tw := q.Start(Identity{Site: 0, Store: content.NewStore(), Work: rnd.New(3)}, waiting)
	ts := q.Start(Identity{Site: 0, Store: full, Work: rnd.New(4)}, sated)
	eng.Run(10 * sim.Hour)
	if joined.asked < 50 || joined.asked > 200 || joined.last.Site != 0 || store.Has(joined.last) {
		t.Fatalf("session asked %d times in 10 h at one per 6 min, last for %v", joined.asked, joined.last)
	}
	if n := counters.Get(StatUnjoinedTicks); waiting.asked < 50 || n != float64(waiting.asked) {
		t.Fatalf("unjoined session asked %d times, %g ticks counted unjoined", waiting.asked, n)
	}
	if sated.asked != 0 {
		t.Fatalf("a session holding the whole catalog was asked %d times", sated.asked)
	}
	for _, timer := range []*QueryTimer{tj, tw, ts, ts} {
		timer.Stop()
	}
	if eng.Pending() != 0 || tj.s != nil || joined.killed {
		t.Fatalf("stopped timers: %d pending, session kept %v, killed %v", eng.Pending(), tj.s != nil, joined.killed)
	}
}

// TestQueryTickDoesNotAllocate pins one harness query tick — the
// clock's draw, the object's draw, the question, the unjoined count of
// a session that has not joined, the timer re-armed on its record — to
// zero objects.
func TestQueryTickDoesNotAllocate(t *testing.T) {
	for _, joined := range []bool{true, false} {
		eng, _, q := queryWorld(t)
		s := &askedSession{joined: joined}
		q.Start(Identity{Site: 0, Store: content.NewStore(), Work: rnd.New(5)}, s)
		for i := 0; i < 1000; i++ {
			eng.Step() // the engine's timer slab reaches its size
		}
		asked := s.asked
		if got := testing.AllocsPerRun(1000, func() { eng.Step() }); got != 0 {
			t.Errorf("a tick of a session joined=%v allocates %v objects, want 0", joined, got)
		}
		if s.asked-asked != 1001 {
			t.Errorf("%d ticks in 1001 steps", s.asked-asked)
		}
	}
}
