package socknet

import (
	"testing"
	"time"

	"flowercdn/internal/runtime"
	"flowercdn/internal/topology"
	"flowercdn/internal/transporttest"
	"flowercdn/internal/wallclock"
)

// These tests pin what group commit and the inbound queue must
// keep: wire order into the handlers, mirror state ahead of the frames
// that depend on it, coalescing without a timer, and a writer that
// lets go of a dead connection.

var midPlace = topology.Placement{Pos: topology.Point{X: 0.5, Y: 0.5}}

// orderHandler records the pings node B receives and whether each
// sender was alive in B's mirror when its ping was handled.
type orderHandler struct {
	b     *Transport
	want  int
	got   []int
	stale int // pings whose sender's join was not yet mirrored
	done  chan struct{}
}

func (h *orderHandler) HandleRequest(runtime.NodeID, any) (any, error) { return nil, nil }

func (h *orderHandler) HandleMessage(from runtime.NodeID, msg any) {
	if !h.b.Alive(from) {
		h.stale++
	}
	h.got = append(h.got, msg.(transporttest.Ping).N)
	if len(h.got) == h.want {
		close(h.done)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestWireOrderAcrossBatchesAndBind writes join+send pairs toward a
// peer — each send from the node the frame before it joined — half of
// them before the peer binds its clock (the buffered path), half while
// it binds. Handlers must see the sends in wire order, each with its
// sender's join already mirrored, whether the two frames shared a
// batch or not.
func TestWireOrderAcrossBatchesAndBind(t *testing.T) {
	trs := newMesh(t, 2, 1, 0, 0, "binary")
	a, b := trs[0], trs[1]
	defer a.Close()
	defer b.Close()

	const n = 4000
	h := &orderHandler{b: b, want: n, done: make(chan struct{})}
	target := b.Join(h, midPlace)
	write := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			id := a.Join(nopHandler{}, midPlace) // broadcasts the join frame
			a.writeFrame(1, frame{Kind: frameSend, From: id, To: target, Payload: transporttest.Ping{N: i}})
		}
	}
	write(0, n/2)
	waitFor(t, "the unbound peer to read the first half", func() bool { return b.WireStats().FramesRead >= n })

	second := make(chan struct{})
	go func() { write(n/2, n); close(second) }()
	clock := wallclock.NewClock()
	b.Bind(clock)
	loop := make(chan struct{})
	go func() { clock.Run(60_000); close(loop) }()
	select {
	case <-h.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d of %d pings delivered", len(h.got), n)
	}
	clock.Stop()
	<-loop
	<-second

	for i, got := range h.got {
		if got != i {
			t.Fatalf("delivery %d carried ping %d: wire order lost", i, got)
		}
	}
	if h.stale != 0 {
		t.Fatalf("%d pings were handled before their sender's join was mirrored", h.stale)
	}
	if ws := b.WireStats(); ws.BatchesRead*4 > ws.FramesRead {
		t.Fatalf("%d frames arrived in %d batches: too little coalescing to have put pairs in one batch", ws.FramesRead, ws.BatchesRead)
	}
}

// TestFloodCoalescesWithoutWindow is BenchmarkBatchedThroughput's
// premise on the live path: a one-way flood, written with no timer
// anywhere, still goes out many frames to the batch, because frames
// gather while the previous write is in flight.
func TestFloodCoalescesWithoutWindow(t *testing.T) {
	trs := newMesh(t, 2, 1, 0, 0, "binary")
	a, b := trs[0], trs[1]
	defer a.Close()
	defer b.Close()

	const n = 50_000
	h := &orderHandler{b: b, want: n, done: make(chan struct{})}
	target := b.Join(h, midPlace)
	src := a.Join(nopHandler{}, midPlace)
	clocks := [2]*wallclock.Clock{wallclock.NewClock(), wallclock.NewClock()}
	loops := make(chan struct{})
	for i, tr := range trs {
		tr.Bind(clocks[i])
		go func(c *wallclock.Clock) { c.Run(60_000); loops <- struct{}{} }(clocks[i])
	}
	waitFor(t, "the target's join to reach the sender", func() bool { return a.Alive(target) })
	before := a.WireStats()
	clocks[0].Schedule(0, func() {
		for i := 0; i < n; i++ {
			a.Send(src, target, transporttest.Ping{N: i})
		}
	})
	select {
	case <-h.done:
	case <-time.After(20 * time.Second):
		t.Fatalf("%d of %d pings delivered", len(h.got), n)
	}
	for _, c := range clocks {
		c.Stop()
		<-loops
	}
	// The writer counts a write after it returns, which the peer's
	// handler can beat.
	waitFor(t, "the writer's count of the last batch", func() bool { return a.WireStats().FramesSent-before.FramesSent >= n })
	ws := a.WireStats()
	frames, batches := ws.FramesSent-before.FramesSent, ws.BatchesSent-before.BatchesSent
	floor := uint64(8)
	if raceEnabled {
		floor = 2
	}
	if frames < floor*batches {
		t.Fatalf("%d frames in %d batches, want %d or more to the batch", frames, batches, floor)
	}
	if ws.FramesDropped != 0 || ws.BrokenConns != 0 {
		t.Fatalf("flood dropped %d frames, broke %d connections", ws.FramesDropped, ws.BrokenConns)
	}
}

// TestCloseAfterPeerVanishes is the regression test for the writer
// livelock: a connection that broke with frames still pending left
// bytes in the batch and zero in the counters, and the writer spun on
// them without ever seeing its stop channel, so Close never returned.
func TestCloseAfterPeerVanishes(t *testing.T) {
	trs := newMesh(t, 2, 1, 0, 0, "binary")
	a, b := trs[0], trs[1]
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		f := frame{Kind: frameSend, From: 0, To: 1, Payload: transporttest.Ping{N: 1}}
		for {
			select {
			case <-stop:
				return
			default:
				a.writeFrame(1, f)
			}
		}
	}()
	waitFor(t, "frames to flow", func() bool { return b.WireStats().FramesRead > 1000 })
	b.Close() // the peer vanishes while frames are pending toward it
	waitFor(t, "the connection to break", func() bool { return a.WireStats().BrokenConns == 1 })
	close(stop)
	<-stopped
	closed := make(chan struct{})
	go func() { a.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close still blocked 2 s after the peer vanished: the writer is not watching its stop channel")
	}
	st, ws := a.Stats(), a.WireStats()
	if ws.FramesSent+ws.FramesDropped == 0 || st.MessagesDropped != ws.FramesDropped {
		t.Fatalf("accounting after the break: %d frames sent, %d dropped, %d messages dropped", ws.FramesSent, ws.FramesDropped, st.MessagesDropped)
	}
}
