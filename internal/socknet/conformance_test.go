package socknet

import (
	"net"
	"sync"
	"testing"

	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/topology"
	"flowercdn/internal/transporttest"
	"flowercdn/internal/wallclock"
)

// newMesh assembles n socknet transports meshed over localhost TCP
// inside the test process, not yet bound to a clock: each instance
// listens on an ephemeral port and dials the others — the same wiring
// as n separate OS processes, minus the fork.
func newMesh(t *testing.T, n int, topoSeed uint64, lossRate float64, lossSeed uint64, codec string) []*Transport {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = lis
		addrs[i] = lis.Addr().String()
	}

	transports := make([]*Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := Config{
				Socket: runtime.SocketConfig{Listen: addrs[i], Peers: addrs, Group: i, Codec: codec},
				// Every instance builds the identical topology from the
				// shared seed, exactly like cooperating processes do.
				Topo:     topology.MustNew(topology.DefaultConfig(), rnd.New(topoSeed)),
				LossRate: lossRate,
				LossRNG:  rnd.New(lossSeed + uint64(i)),
			}
			transports[i], errs[i] = DialListener(cfg, listeners[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("instance %d failed to mesh: %v", i, err)
		}
	}
	return transports
}

// newLocalGroup gives every instance of a newMesh its own wall-clock
// run loop.
func newLocalGroup(t *testing.T, n int, topoSeed uint64, lossRate float64, lossSeed uint64, codec string) *transporttest.World {
	t.Helper()
	transports := newMesh(t, n, topoSeed, lossRate, lossSeed, codec)

	clocks := make([]*wallclock.Clock, n)
	world := &transporttest.World{Topo: topology.MustNew(topology.DefaultConfig(), rnd.New(topoSeed))}
	for i, tr := range transports {
		clocks[i] = wallclock.NewClock()
		tr.Bind(clocks[i])
		world.Transports = append(world.Transports, tr)
	}
	world.Run = func(until int64) {
		var rw sync.WaitGroup
		for _, c := range clocks {
			c := c
			rw.Add(1)
			go func() {
				defer rw.Done()
				c.Run(until)
			}()
		}
		rw.Wait()
	}
	world.Close = func() {
		for _, tr := range transports {
			tr.Close()
		}
	}
	world.Sever = func(i int) { transports[i].Close() }
	return world
}

// TestTransportConformance runs the shared Transport contract suite
// across three genuinely TCP-connected transport instances, once per
// registered codec: the same Send/Request/timeout/loss contracts must
// hold whether the frames carry gob or hand-rolled binary payloads.
func TestTransportConformance(t *testing.T) {
	transporttest.RunCodecs(t, func(codec string) transporttest.Factory {
		return func(t *testing.T, topoSeed uint64, lossRate float64, lossSeed uint64, instances int) *transporttest.World {
			return newLocalGroup(t, instances, topoSeed, lossRate, lossSeed, codec)
		}
	})
}

// TestStrideOwnership pins the NodeID partition scheme: instance g
// mints g, g+N, g+2N, … so ownership needs no coordination.
func TestStrideOwnership(t *testing.T) {
	w := newLocalGroup(t, 3, 1, 0, 0, "")
	topo := w.Topo
	pl := topology.Placement{Pos: topology.Point{X: 0.5, Y: 0.5}, Loc: topo.LocalityOf(topology.Point{X: 0.5, Y: 0.5})}
	defer w.Close()

	for g := 0; g < 3; g++ {
		first := w.Transports[g].Join(nopHandler{}, pl)
		second := w.Transports[g].Join(nopHandler{}, pl)
		if int(first)%3 != g || int(second)%3 != g {
			t.Errorf("instance %d minted ids %d, %d — not its stride class", g, first, second)
		}
		if second != first+3 {
			t.Errorf("instance %d stride step: %d then %d, want +3", g, first, second)
		}
	}
}

// TestAnnounceBus checks the Bus capability: an announcement reaches
// every other instance's subscribers (on their run loops) and never
// loops back to the announcer.
func TestAnnounceBus(t *testing.T) {
	w := newLocalGroup(t, 3, 1, 0, 0, "binary")
	defer w.Close()

	var mu sync.Mutex
	got := make([]int, 3)
	for i, tr := range w.Transports {
		i := i
		runtime.BusOf(tr).Subscribe(func(msg any) {
			if p, ok := msg.(transporttest.Ping); ok && p.N == 77 {
				mu.Lock()
				got[i]++
				mu.Unlock()
			}
		})
	}
	runtime.BusOf(w.Transports[1]).Announce(transporttest.Ping{N: 77})

	deadline := int64(0)
	for deadline < 4000 {
		deadline += 25
		w.Run(deadline)
		mu.Lock()
		done := got[0] == 1 && got[2] == 1
		mu.Unlock()
		if done {
			break
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0] != 1 || got[2] != 1 {
		t.Fatalf("announcement counts %v, want exactly one at instances 0 and 2", got)
	}
	if got[1] != 0 {
		t.Fatalf("announcement looped back to the announcer (%d)", got[1])
	}
}

// TestPeerShutdownMarksGroupDead checks the crash/shutdown story: when
// a process goes away, every other process marks its nodes dead — the
// same observable outcome churn produces, so protocol code needs no
// special case.
func TestPeerShutdownMarksGroupDead(t *testing.T) {
	w := newLocalGroup(t, 3, 1, 0, 0, "")
	defer w.Close()
	topo := w.Topo
	pl := topology.Placement{Pos: topology.Point{X: 0.5, Y: 0.5}, Loc: topo.LocalityOf(topology.Point{X: 0.5, Y: 0.5})}

	id := w.Transports[2].Join(nopHandler{}, pl)
	waitCond(t, w, func() bool { return w.Transports[0].Alive(id) })

	// Instance 2 goes away — a finished (or crashed) process.
	w.Transports[2].(*Transport).Close()
	waitCond(t, w, func() bool { return !w.Transports[0].Alive(id) })
}

func waitCond(t *testing.T, w *transporttest.World, cond func() bool) {
	t.Helper()
	until := int64(0)
	for until < 5000 {
		if cond() {
			return
		}
		until += 25
		w.Run(until)
	}
	t.Fatal("condition never held")
}

type nopHandler struct{}

func (nopHandler) HandleMessage(runtime.NodeID, any)              {}
func (nopHandler) HandleRequest(runtime.NodeID, any) (any, error) { return nil, nil }

// TestGroupOfOneOpensNoSocket: a one-process group has no peer to
// connect, so Dial binds nothing — it succeeds on an address another
// listener already holds.
func TestGroupOfOneOpensNoSocket(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	addr := held.Addr().String()
	topo := topology.MustNew(topology.DefaultConfig(), rnd.New(1))
	tr, err := Dial(Config{Socket: runtime.SocketConfig{Listen: addr, Peers: []string{addr}}, Topo: topo})
	if err != nil {
		t.Fatalf("group of one on a held address: %v", err)
	}
	if tr.lis != nil {
		t.Errorf("group of one holds listener %v", tr.lis.Addr())
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}
