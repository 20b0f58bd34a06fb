package socknet

import (
	"net"
	goruntime "runtime"
	"testing"
	"time"

	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/sim"
	"flowercdn/internal/topology"
	"flowercdn/internal/transporttest"
	"flowercdn/internal/wallclock"
)

// pongHandler answers every request with one prebuilt response.
type pongHandler struct{ resp any }

func (pongHandler) HandleMessage(runtime.NodeID, any)                {}
func (h pongHandler) HandleRequest(runtime.NodeID, any) (any, error) { return h.resp, nil }

// TestRequestRoundTripAllocs pins what the transport itself allocates
// for a cross-process RPC — request frame out, handler, response frame
// back, over real loopback TCP between two transports — at under one
// object, counted process-wide over a closed loop of 64 in flight. The
// payloads are a Ping and a Pong small enough to box without an
// allocation, so nothing here is the codec's; a real payload adds its
// decoded copy on each side (the repo benchmark's wire-rpc reads about
// four). The RPC records are simnet's pooled ones on both sides,
// inbound frames queue in two slices the transport keeps, and the timers
// a round trip schedules (its deadline, a leg each way, its share of the
// drains) are released to the clocks, which recycle them; while each
// was an object this read three. Once the loop is over, both clocks
// hold as many timers as before it: a reply's deadline leaves the queue
// as the reply cancels it.
func TestRequestRoundTripAllocs(t *testing.T) {
	trs := newMesh(t, 2, 1, 0, 0, "binary")
	a, b := trs[0], trs[1]
	clocks := [2]*wallclock.Clock{wallclock.NewClock(), wallclock.NewClock()}
	loops := make(chan struct{})
	for i, tr := range trs {
		tr.Bind(clocks[i])
		go func(c *wallclock.Clock) { c.Run(60_000); loops <- struct{}{} }(clocks[i])
	}
	defer func() {
		for _, c := range clocks {
			c.Stop()
			<-loops
		}
		a.Close()
		b.Close()
	}()
	server := b.Join(pongHandler{resp: transporttest.Pong{N: 1}}, midPlace)
	client := a.Join(nopHandler{}, midPlace)
	waitFor(t, "the server's join to reach the client", func() bool { return a.Alive(server) })

	const inFlight, warm, rounds = 64, 1_000, 6_000
	var (
		req           any = transporttest.Ping{N: 1}
		before, after goruntime.MemStats
		issued, done  int
		failed        int
		finished      = make(chan struct{})
		onReply       func(resp any, err error)
	)
	issue := func() {
		if issued < warm+rounds {
			issued++
			a.Request(client, server, req, 0, onReply)
		}
	}
	onReply = func(_ any, err error) { // on the client's run loop, like issue
		if err != nil {
			failed++
		}
		switch done++; done {
		case warm:
			goruntime.ReadMemStats(&before)
		case warm + rounds:
			goruntime.ReadMemStats(&after)
			close(finished)
		}
		issue()
	}
	pending := [2]int{clocks[0].Pending(), clocks[1].Pending()}
	clocks[0].Schedule(0, func() {
		for i := 0; i < inFlight; i++ {
			issue()
		}
	}).Release()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatalf("%d of %d round trips after 60 s", done, warm+rounds)
	}
	if failed != 0 {
		t.Fatalf("%d of %d requests failed", failed, warm+rounds)
	}
	// Every reply has come back, so every deadline is cancelled and every
	// leg has fired: the queues are as they were, not 4 s of deadlines
	// deep.
	for i, c := range clocks {
		if got := c.Pending(); got != pending[i] {
			t.Errorf("clock %d holds %d timers after the closed loop, %d before it", i, got, pending[i])
		}
	}
	perOp := float64(after.Mallocs-before.Mallocs) / rounds
	t.Logf("%.2f objects, %.1f bytes per round trip", perOp, float64(after.TotalAlloc-before.TotalAlloc)/rounds)
	if perOp >= 1 && !raceEnabled { // the race detector makes sync.Pool drop records at random
		t.Errorf("a Request round trip allocates %.2f objects; want under 1", perOp)
	}
}

// TestSameProcessAllocBytes holds the legs that never leave the process
// to simnet's pin, TestMessageAllocBytes: zero bytes for a Send with its
// delivery and for a Request with its reply, timers included, because
// they are simnet's pooled records. A one-group transport bound to the
// discrete-event engine has no peer to read from, so every call runs on
// this goroutine.
func TestSameProcessAllocBytes(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := DialListener(Config{
		Socket: runtime.SocketConfig{Listen: lis.Addr().String(), Peers: []string{lis.Addr().String()}},
		Topo:   topology.MustNew(topology.DefaultConfig(), rnd.New(1)),
	}, lis)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	eng := sim.NewEngine()
	tr.Bind(eng.Clock())
	a := tr.Join(nopHandler{}, midPlace)
	b := tr.Join(pongHandler{resp: transporttest.Pong{N: 1}}, midPlace)
	replied := 0
	onReply := func(any, error) { replied++ }
	const rounds = 2000
	if got := transporttest.AllocBytes(rounds, func() {
		tr.Send(a, b, transporttest.Ping{N: 1})
		eng.RunAll()
	}); got != 0 {
		t.Errorf("Send+delivery allocated %d bytes over %d messages; want 0", got, rounds)
	}
	if got := transporttest.AllocBytes(rounds, func() {
		tr.Request(a, b, transporttest.Ping{N: 1}, 0, onReply)
		eng.RunAll()
	}); got != 0 {
		t.Errorf("Request+reply allocated %d bytes over %d calls; want 0", got, rounds)
	}
	if replied == 0 {
		t.Fatal("no request was answered")
	}
}
