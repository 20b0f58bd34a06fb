package harness

import (
	goruntime "runtime"
	"testing"

	"flowercdn/internal/churn"
	"flowercdn/internal/flower"
	"flowercdn/internal/metrics"
	"flowercdn/internal/proto"
	"flowercdn/internal/protocols"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/sim"
	"flowercdn/internal/simnet"
	"flowercdn/internal/topology"
	"flowercdn/internal/workload"
)

// spawnWorld is a deployment of protocol whose seeds are online and
// settled, driven by the harness's own session code and a churn process
// that makes no arrival of its own: after warm-up nothing runs but what
// a test starts. Sessions live 10 000 h and query once a day, so no
// seed fails or asks anything while a session is measured.
type spawnWorld struct {
	eng  *sim.Engine
	sys  proto.System
	ss   *sessions
	proc *churn.Process
}

func newSpawnWorld(t *testing.T, protocol string) *spawnWorld {
	t.Helper()
	master := rnd.New(3)
	topo := topology.MustNew(topology.DefaultConfig(), master.Split("topology"))
	eng := sim.NewEngine()
	net := simnet.New(eng.Clock(), topo)
	wcfg := workload.DefaultConfig()
	wcfg.Sites, wcfg.ActiveSites, wcfg.ObjectsPerSite = 1, 1, 100
	wcfg.QueryMeanInterval = 24 * runtime.Hour
	work, err := workload.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	env := proto.Env{
		Clock: eng.Clock(), Net: net, Oracle: net, Topo: topo, RNG: master.Split("protocol"),
		Workload: work, Origins: workload.NewOrigins(work, net, topo, master.Split("origins")),
		Metrics: metrics.NewPipeline(metrics.NewCollector(10 * runtime.Minute)),
	}
	driver, _ := protocols.Lookup(protocol)
	sys, err := driver.New(env, proto.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pop, err := proto.NewPopulation(topo, work, master.Split("population"), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	churnRNG := master.Split("churn")
	pl := &pool{rng: churnRNG, pop: pop, cap: 1000}
	pl.inds = make([]proto.Identity, 0, pl.cap)
	w := &spawnWorld{eng: eng, sys: sys, ss: &sessions{pool: pl, sys: sys, queries: proto.NewQueries(eng.Clock(), work, env.Metrics, nil)}}
	w.proc, err = churn.NewProcess(churn.Config{TargetPopulation: 100, MeanUptime: 10_000 * runtime.Hour}, eng.Clock(), churnRNG, w.ss.spawn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pop.Seeds() {
		eng.Schedule(int64(i)*runtime.Second, func() { w.ss.seed(i) }).Release()
	}
	eng.Run(2 * runtime.Hour)
	return w
}

// mallocs is the process's count of heap objects allocated so far.
func mallocs() uint64 {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return m.Mallocs
}

// TestSessionSpawnAllocs pins what one session costs, in heap objects,
// from the churn arrival that spawns it through its join: for flower
// the first query, routed over D-ring, answered by its petal's
// directory and ending in petal membership (gossip and keepalive
// armed); for squirrel the Chord join. The count covers everything that
// runs in between, on every peer: the arrival (lifetime closure,
// session record, a fresh individual minted into a pool page), the
// protocol's spawn, the query timer, and each message and record of the
// join, the directory's side included. It is the mean over 64 sessions
// spawned one after another into the same settled deployment,
// truncated as testing.AllocsPerRun truncates, so a slab or a page
// carved now and then does not show.
//
// Before sessions held their sub-states and streams — a session record
// plus its stop func beside churn's lifetime closure; an individual's
// store and workload stream, split query and gossip streams, a gossip
// protocol and a first query record each on their own; a second object
// per ticker, its bound re-arming method; a sibling list built for
// every reply — the same pins read 33 and 30. Squirrel's read 21 while a
// Chord member's tickers were a slice and its successor lists, spare and
// contacts grew by append.
func TestSessionSpawnAllocs(t *testing.T) {
	for _, c := range []struct {
		protocol string
		want     uint64
		joined   func(w *spawnWorld, s *session, ring int) bool
	}{
		{"flower", 22, func(_ *spawnWorld, s *session, _ int) bool {
			return s.h.(*flower.Peer).Role() != flower.RoleClient
		}},
		{"squirrel", 20, func(w *spawnWorld, _ *session, ring int) bool {
			return len(w.sys.(proto.RingInspector).RingMembers()) > ring
		}},
	} {
		t.Run(c.protocol, func(t *testing.T) {
			w := newSpawnWorld(t, c.protocol)
			const sessions = 64
			var total uint64
			for range sessions {
				ring := 0
				if ri, ok := w.sys.(proto.RingInspector); ok {
					ring = len(ri.RingMembers())
				}
				before := mallocs()
				w.proc.SpawnInitial(1)
				total += mallocs() - before
				online := w.ss.live.Online()
				s := online[len(online)-1]
				for !c.joined(w, s, ring) {
					if w.eng.Pending() == 0 {
						t.Fatal("the engine drained before the session joined")
					}
					before := mallocs()
					w.eng.Step()
					total += mallocs() - before
				}
				// Unmeasured: the session fails and its individual
				// retires, so that the next arrival mints a fresh one,
				// and the deployment settles back to quiet.
				s.Stop()
				w.ss.pool.offline = w.ss.pool.offline[:0]
				w.eng.Run(w.eng.Now() + 10*runtime.Minute)
			}
			if got := total / sessions; got != c.want {
				t.Errorf("a %s session allocates %d objects from spawn through its join, want %d", c.protocol, got, c.want)
			}
		})
	}
}
