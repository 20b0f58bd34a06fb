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

// heldReply is a neighbours reply a prober kept, with what it said when
// it was given.
type heldReply struct {
	step  string
	resp  neighborsResp
	pred  Entry
	succs []Entry
}

// replyLog probes one node and holds every reply it gives.
type replyLog struct {
	t    *testing.T
	n    *Node
	held []heldReply
}

func probeNeighbors(t *testing.T, n *Node) neighborsResp {
	t.Helper()
	resp, err, handled := n.HandleRequest(runtime.None, neighborsReq{})
	if err != nil || !handled {
		t.Fatalf("neighbours probe: err %v, handled %v", err, handled)
	}
	return *resp.(*neighborsResp)
}

// answer probes the node after step, checks that the reply shows the
// node's current predecessor and list, and holds it.
func (l *replyLog) answer(step string) neighborsResp {
	l.t.Helper()
	nb := probeNeighbors(l.t, l.n)
	if nb.Pred != l.n.pred || !slices.Equal(nb.Succs, l.n.succs) {
		l.t.Fatalf("after %s: reply says pred %v succs %v, the node has pred %v succs %v",
			step, nb.Pred, nb.Succs, l.n.pred, l.n.succs)
	}
	l.held = append(l.held, heldReply{step: step, resp: nb, pred: nb.Pred, succs: slices.Clone(nb.Succs)})
	return nb
}

// after checks that no reply held so far changed under step, that step
// changed what the node answers, and then holds a fresh reply.
func (l *replyLog) after(step string) {
	l.t.Helper()
	for _, h := range l.held {
		if h.resp.Pred != h.pred || !slices.Equal(h.resp.Succs, h.succs) {
			l.t.Fatalf("%s changed the reply given after %s: now pred %v succs %v, given as pred %v succs %v",
				step, h.step, h.resp.Pred, h.resp.Succs, h.pred, h.succs)
		}
	}
	last := l.held[len(l.held)-1]
	if l.n.pred == last.pred && slices.Equal(l.n.succs, last.succs) {
		l.t.Fatalf("%s changed neither the predecessor nor the successor list", step)
	}
	l.answer(step)
}

// TestNeighborsReplyIsASnapshot holds the replies a node gives to
// stabilize probes while every writer of its successor list and of its
// predecessor runs: each held reply must keep saying what it said when
// it was given, and each fresh one must show the node's new state.
func TestNeighborsReplyIsASnapshot(t *testing.T) {
	t.Run("member", func(t *testing.T) {
		f, src, far := quietRing(t)
		n, alive := src.node, f.aliveSorted()
		if n.pred != far.node.Self() {
			t.Fatalf("predecessor %v, want %v", n.pred, far.node.Self())
		}
		l := &replyLog{t: t, n: n}
		l.answer("freeze")

		n.mergeSuccList(n.Successor(), []Entry{alive[9].node.Self(), alive[5].node.Self()})
		l.after("mergeSuccList")
		n.adoptSuccessor(alive[3].node.Self(), []Entry{alive[7].node.Self()})
		l.after("adoptSuccessor")
		n.dropSuccessor(n.Successor())
		l.after("dropSuccessor")

		far.node.Stop()
		f.net.Fail(far.nid)
		n.checkPredecessor()
		f.eng.Run(f.eng.Now() + 5*runtime.Second)
		if n.pred.Valid() {
			t.Fatalf("checkPredecessor kept the dead predecessor %v", n.pred)
		}
		l.after("a checkPredecessor timeout")

		n.onNotify(alive[len(alive)-1].node.Self())
		l.after("onNotify")
	})

	t.Run("lone", func(t *testing.T) {
		f := newRing(t, 78)
		n := f.addPeer(1 << 40).node
		l := &replyLog{t: t, n: n}
		l.answer("Create")

		x := Entry{Node: 4242, ID: 1 << 20}
		n.onNotify(x)
		if !slices.Equal(n.succs, []Entry{x}) {
			t.Fatalf("a lone node notified by %v has successors %v", x, n.succs)
		}
		l.after("onNotify at a lone node")
		n.dropSuccessor(x)
		l.after("dropSuccessor of the last successor")
		n.stabilize()
		if !slices.Equal(n.succs, []Entry{x}) {
			t.Fatalf("a node alone with predecessor %v has successors %v after stabilize", x, n.succs)
		}
		l.after("stabilize alone")
	})

	t.Run("joining", func(t *testing.T) {
		f, src, _ := quietRing(t)
		gw := src.node.Self()
		joins := []struct {
			name string
			join func(n *Node, done func())
		}{
			{"Join", func(n *Node, done func()) {
				n.Join(gw, func(err error) {
					if err != nil {
						t.Fatalf("Join: %v", err)
					}
					done()
				})
			}},
			{"JoinAt", func(n *Node, done func()) {
				n.JoinAt(gw, func(cur Entry, err error) {
					if err != nil {
						t.Fatalf("JoinAt: %v (current %v)", err, cur)
					}
					done()
				})
			}},
		}
		for _, j := range joins {
			p := &testPeer{}
			p.nid = f.net.Join(p, f.topo.Place(f.rng))
			n, err := NewNode(f.cfg, f.net, f.rng.Split(j.name), p, p.nid, ids.HashString("joiner-"+j.name))
			if err != nil {
				t.Fatal(err)
			}
			p.node = n
			l := &replyLog{t: t, n: n}
			// An unstarted node has no list; its second answer takes the
			// cached box, whose identity check must not index the list.
			for _, step := range []string{"NewNode", "a second probe of an unstarted node"} {
				if nb := l.answer(step); nb.Pred.Valid() || len(nb.Succs) != 0 {
					t.Fatalf("an unstarted node answers pred %v succs %v", nb.Pred, nb.Succs)
				}
			}
			joined := false
			j.join(n, func() {
				if len(n.succs) != 1 || n.pred.Valid() {
					t.Fatalf("%s left pred %v succs %v, want no predecessor and one successor", j.name, n.pred, n.succs)
				}
				l.after(j.name)
				joined = true
			})
			f.eng.Run(f.eng.Now() + runtime.Minute)
			if !joined {
				t.Fatalf("%s did not complete", j.name)
			}
			n.Stop()
		}
	})
}

// copyingModel is a successor list as the node kept it before lists
// were published copy-on-write: every change builds a fresh list, and
// every reply is a copy of the list.
type copyingModel struct {
	self  Entry
	max   int
	pred  Entry
	succs []Entry
}

func (m *copyingModel) merge(succ Entry, theirs []Entry) {
	list := []Entry{succ}
	for _, s := range theirs {
		if len(list) < m.max && s.Node != m.self.Node && !containsNode(list, s.Node) {
			list = append(list, s)
		}
	}
	m.succs = list
}

func (m *copyingModel) adopt(e Entry, tail []Entry) {
	list := []Entry{e}
	for _, s := range m.succs {
		if len(list) < m.max && s.Node != e.Node && s.Node != m.self.Node {
			list = append(list, s)
		}
	}
	for _, s := range tail {
		if len(list) < m.max && s.Node != e.Node && s.Node != m.self.Node && !containsNode(list, s.Node) {
			list = append(list, s)
		}
	}
	m.succs = list
}

func (m *copyingModel) drop(dead Entry) {
	var list []Entry
	for _, s := range m.succs {
		if s.Node != dead.Node {
			list = append(list, s)
		}
	}
	if len(list) == 0 {
		list = []Entry{m.self}
	}
	m.succs = list
}

// TestSuccessorListMatchesCopyingModel drives random sequences of
// merges, adoptions, drops, predecessor changes and probes against one
// node and against copyingModel. After every step the lists must agree,
// every reply the node gave must still equal the model's copy from the
// same moment, and the spare the node rebuilds in must not be the
// published list. Merges sometimes read a list the node published, as a
// node probing itself would.
func TestSuccessorListMatchesCopyingModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rnd.New(seed)
		net := &recordingNet{Transport: simrt.New(topology.MustNew(topology.DefaultConfig(), rng)).Net()}
		cfg := DefaultConfig()
		cfg.SuccessorListLen = 1 + rng.Intn(8)
		n, err := NewNode(cfg, net, rng, &testPeer{}, 1, ids.ID(rng.Uint64()))
		if err != nil {
			t.Fatal(err)
		}
		n.Create()
		m := &copyingModel{self: n.self, max: cfg.SuccessorListLen, pred: n.pred, succs: slices.Clone(n.succs)}
		others := []Entry{{Node: 2, ID: ids.ID(rng.Uint64())}}
		for node := runtime.NodeID(3); node <= 12; node++ {
			others = append(others, Entry{Node: node, ID: ids.ID(rng.Uint64())})
		}
		others = append(others, Entry{Node: 2, ID: ids.ID(rng.Uint64())}) // node 2 again, elsewhere
		pool := append([]Entry{n.self}, others...)
		pickFrom := func(es []Entry) Entry { return es[rng.Intn(len(es))] }
		var held []heldReply
		someList := func() []Entry {
			switch rng.Intn(4) {
			case 0:
				return n.succs // a list the node published
			case 1:
				if len(held) > 0 {
					return held[rng.Intn(len(held))].resp.Succs
				}
			}
			var l []Entry
			for k := rng.Intn(cfg.SuccessorListLen + 3); k > 0; k-- {
				l = append(l, pickFrom(pool))
			}
			return l
		}
		for step := 0; step < 2000; step++ {
			var op string
			switch r := rng.Intn(10); {
			case r < 3:
				op = "merge"
				succ, theirs := pickFrom(others), someList()
				m.merge(succ, theirs)
				n.mergeSuccList(succ, theirs)
			case r < 5:
				op = "adopt"
				e, tail := pickFrom(others), []Entry(nil)
				if rng.Intn(2) == 0 {
					tail = someList()
				}
				m.adopt(e, tail)
				n.adoptSuccessor(e, tail)
			case r < 7:
				op = "drop"
				dead := pickFrom(pool)
				if rng.Intn(2) == 0 {
					dead = n.Successor()
				}
				m.drop(dead)
				n.dropSuccessor(dead)
			case r < 8:
				op = "predecessor change"
				m.pred = pickFrom(pool)
				n.pred = m.pred
			default:
				op = "probe"
				nb := probeNeighbors(t, n)
				if nb.Pred != m.pred || !slices.Equal(nb.Succs, m.succs) {
					t.Fatalf("seed %d step %d: reply says pred %v succs %v, the model pred %v succs %v",
						seed, step, nb.Pred, nb.Succs, m.pred, m.succs)
				}
				held = append(held, heldReply{step: op, resp: nb, pred: m.pred, succs: slices.Clone(m.succs)})
				if len(held) > 16 {
					held = held[1:]
				}
			}
			if !slices.Equal(n.succs, m.succs) {
				t.Fatalf("seed %d step %d: after %s the node has %v, the model %v", seed, step, op, n.succs, m.succs)
			}
			for i, h := range held {
				if h.resp.Pred != h.pred || !slices.Equal(h.resp.Succs, h.succs) {
					t.Fatalf("seed %d step %d: %s changed held reply %d to pred %v succs %v, given as pred %v succs %v",
						seed, step, op, i, h.resp.Pred, h.resp.Succs, h.pred, h.succs)
				}
			}
			if spare := n.succsSpare[:cap(n.succsSpare)]; len(spare) > 0 && len(n.succs) > 0 && &spare[0] == &n.succs[0] {
				t.Fatalf("seed %d step %d: after %s the published list is the spare", seed, step, op)
			}
		}
	}
}
