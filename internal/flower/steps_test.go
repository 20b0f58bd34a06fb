package flower

import (
	"testing"

	"flowercdn/internal/chord"
	"flowercdn/internal/content"
	"flowercdn/internal/dring"
	"flowercdn/internal/metrics"
	"flowercdn/internal/proto"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/topology"
	"flowercdn/internal/trace"
)

// checkStepPool holds the free list to what recycling promises: no
// record is listed twice, and a listed record keeps nothing of the query
// it last served.
func checkStepPool(t *testing.T, s *System) {
	t.Helper()
	seen := map[*step]bool{}
	for i, st := range s.freeSteps {
		if seen[st] {
			t.Errorf("free list entry %d: record %p is listed twice", i, st)
		}
		seen[st] = true
		if st.p != nil || st.q != nil || st.req != nil {
			t.Errorf("free list entry %d still holds peer %v, query %v, request %v", i, st.p, st.q, st.req)
		}
		if st.onDone == nil {
			t.Errorf("free list entry %d lost its bound callback", i)
		}
	}
}

type emitFunc func(metrics.Event)

func (f emitFunc) Emit(ev metrics.Event) { f(ev) }

// TestPooledStepsSurviveStragglers covers what pooling the query path's
// callback records must not break: two chains of steps on one query.
func TestPooledStepsSurviveStragglers(t *testing.T) {
	// A retried routed query is answered twice under one Seq: both
	// answers start probing, the chains share the query's cursor, the
	// first to run out resolves the query and the other's last answer
	// comes home to a record that has moved on.
	t.Run("two answers to one routed query", func(t *testing.T) {
		f, c, holders, dir, _ := quietPetal(t)
		key := content.Key{Site: 0, Object: 40} // only holders[1] has it
		holders[1].store.Add(key)
		for i := 0; i < 3; i++ {
			// Three queries at once leave three records on the free list.
			c.query = nil
			c.contentQuery(c.newQuery(content.Key{Site: 0, Object: content.ObjectID(41 + i)}))
		}
		f.run(time10s)
		home := len(f.sys.freeSteps)
		if home < 2 || c.query != nil {
			t.Fatalf("warm-up left %d records home and query %v in flight", home, c.query)
		}
		resolved := f.coll.Total()

		q := c.newQuery(key)
		answer := dirQueryResp{
			Seq:       q.seq,
			Providers: []runtime.NodeID{holders[0].NodeID(), holders[1].NodeID()},
			Dir:       chord.Entry{Node: dir.NodeID(), ID: dring.Position(0, 0, 0)},
		}
		c.onDirQueryResp(answer)
		c.onDirQueryResp(answer)
		if got := len(f.sys.freeSteps); got != home-2 {
			t.Fatalf("%d records home with two probes in flight, want %d", got, home-2)
		}
		f.run(time10s)
		if got := f.coll.Total() - resolved; got != 1 {
			t.Errorf("the query emitted %d query events, want exactly 1", got)
		}
		if c.query != nil || c.qspare != q {
			t.Errorf("query %v still in flight, spare %p, want none and %p", c.query, c.qspare, q)
		}
		if got := len(f.sys.freeSteps); got != home {
			t.Errorf("%d records home at rest, want %d", got, home)
		}
		if len(answer.Providers) != 2 || answer.Providers[0] != holders[0].NodeID() {
			t.Errorf("the answer's provider list changed under the client: %v", answer.Providers)
		}
		checkStepPool(t, f.sys)
	})

	// The same under weather: a lossy network, a routed-query deadline
	// about one round trip long so that attempts are retried while their
	// answers are still on the way, clients arriving all along. The test
	// issues every query itself, so it knows how many there were.
	t.Run("lossy petal", func(t *testing.T) {
		var events int
		traces := &trace.Collector{}
		f := newFixtureWith(t, 41, func(c *Config) {
			c.QueryTimeout = 300 * runtime.Millisecond
		}, func(d *proto.Env) {
			coll := d.Metrics
			sink := emitFunc(func(ev metrics.Event) {
				if ev.Kind == metrics.KindQuery {
					events++
				}
				traces.Observe(ev)
				coll.Emit(ev)
			})
			d.Metrics, d.Trace = sink, trace.New(sink, d.Oracle.Locality)
		})
		f.seedRing()
		f.eng.Network().SetLossRate(0.1, rnd.New(5))
		for _, p := range f.sys.Peers() {
			f.timers[p].Stop()
		}
		picks := rnd.New(41)
		f.run(runtime.Minute)
		events = 0
		traced := traces.Len() // the seeds' own queries while the ring formed
		issued := 0
		for round := 0; round < 150; round++ {
			if round%5 == 0 && round < 100 {
				f.timers[f.spawn(content.SiteID(round/5%3), topology.Locality(round/5%2))].Stop()
			}
			for _, p := range f.sys.Peers() {
				if !f.work.Active(p.site) {
					continue
				}
				before := f.sys.querySeq
				if key, ok := f.work.PickObject(picks, p.site, p.store); ok {
					p.Query(key)
				}
				if f.sys.querySeq != before {
					issued++
				}
			}
			f.run(3 * runtime.Second)
		}
		f.run(5 * runtime.Minute)
		for _, p := range f.sys.Peers() {
			if p.query != nil {
				t.Errorf("peer %d: query %d (join-only %v) never resolved", p.NodeID(), p.query.seq, p.query.joinOnly)
			}
		}
		if events != issued || issued < 1000 {
			t.Errorf("%d queries issued, %d query events: every query resolves exactly once", issued, events)
		}
		bySeq := map[uint64]bool{}
		retried, answeredTwice := 0, 0
		for _, rec := range traces.Records()[traced:] {
			if bySeq[rec.Query] {
				t.Errorf("query %d resolved twice", rec.Query)
			}
			bySeq[rec.Query] = true
			if rec.Attempts > 1 {
				retried++
			}
			// Each answer to a routed query merges its directory-side
			// segment, which ends at the answering directory.
			homes := map[runtime.NodeID]int{}
			for _, h := range rec.Hops {
				if h.Kind == trace.HopHome {
					homes[h.Node]++
				}
			}
			for _, n := range homes {
				if n > 1 {
					answeredTwice++
					break
				}
			}
		}
		if len(bySeq) != issued {
			t.Errorf("%d queries traced, %d issued", len(bySeq), issued)
		}
		if retried == 0 || answeredTwice == 0 {
			t.Errorf("%d queries retried, %d answered twice: the run never produced the stragglers it is for", retried, answeredTwice)
		}
		if len(f.sys.freeSteps) < 2 {
			t.Errorf("%d records on the free list after %d queries", len(f.sys.freeSteps), issued)
		}
		checkStepPool(t, f.sys)
		if err := f.sys.chordPool.Check(); err != nil {
			t.Error(err)
		}
	})
}

const time10s = 10 * runtime.Second

// TestCandidateBufferIsTheQuerysOwn is the regression test for the
// recycled candidate buffer: a provider list that arrives in a message
// is copied into the query's buffer, so that the peer's next query,
// ranking its gossip contacts into the same record, cannot write into a
// reply the sender, the transport or a trace may still hold — and the
// buffer keeps its capacity instead of being walked away by the probes.
func TestCandidateBufferIsTheQuerysOwn(t *testing.T) {
	f, c, holders, dir, keys := quietPetal(t)
	providers := []runtime.NodeID{holders[2].NodeID(), holders[1].NodeID(), holders[0].NodeID(), 0, 0, 0}[:3]
	want := append([]runtime.NodeID(nil), providers[:cap(providers)]...)
	canned := f.net.Join(cannedDirectory{reply: dirQueryReply{Providers: providers}}, f.beside(dir))
	for _, e := range c.gsp.Entries() {
		c.gsp.RemoveContact(e.Peer)
	}
	c.dirInfo = DirInfo{Pos: dring.Position(0, 0, 0), Node: canned}
	c.syncedDir = canned

	q := c.newQuery(keys[0])
	c.contentQuery(q) // no contact claims the key: the canned directory answers
	f.run(time10s)
	if c.query != nil || f.coll.Count(metrics.HitDirectory) == 0 {
		t.Fatalf("directory-path query: in flight %v, %d directory hits", c.query, f.coll.Count(metrics.HitDirectory))
	}
	if cap(q.candidates) < 3 {
		t.Errorf("the recycled record kept %d candidate slots of 3", cap(q.candidates))
	}
	for _, h := range holders {
		c.gsp.AddContact(h.NodeID(), ContactMeta{Summary: h.store.Summary(), Dir: h.dirInfo})
	}
	q2 := c.newQuery(keys[1])
	if q2 != q {
		t.Fatal("the second query did not take the recycled record")
	}
	c.contentQuery(q2) // ranks three contacts into the record's buffer
	f.run(time10s)
	if f.coll.Count(metrics.HitLocalGossip) == 0 {
		t.Fatal("the gossip-path query did not resolve in the petal")
	}
	for i, n := range providers[:cap(providers)] {
		if n != want[i] {
			t.Fatalf("the previous reply's provider array changed: %v, want %v", providers[:cap(providers)], want)
		}
	}
}
