package simnet

import (
	"testing"

	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/sim"
	"flowercdn/internal/topology"
)

// BenchmarkRequestRoundTrip prices one RPC on the engine end to end —
// Request, its legs, the handler, and the reply or the timeout, engine
// included — among 300 nodes at the topology's latencies (10–500 ms one
// way), with 256 RPCs in flight, each completion issuing the next, and
// one target in 50 dead, so that about 2 % of the RPCs time out.
func BenchmarkRequestRoundTrip(b *testing.B) {
	const nodes, inFlight, deadEvery = 300, 256, 50
	eng := sim.NewEngine()
	rng := rnd.New(17)
	topo, err := topology.New(topology.DefaultConfig(), rng)
	if err != nil {
		b.Fatal(err)
	}
	net := New(eng.Clock(), topo)
	ids := make([]runtime.NodeID, nodes)
	for i := range ids {
		ids[i] = net.Join(nopNode{}, topo.Place(rng))
	}
	for i := 0; i < nodes; i += deadEvery {
		net.Fail(ids[i])
	}
	// Requesters are live: a dead one's callback never runs.
	pairs := make([][2]runtime.NodeID, 4096)
	for i := range pairs {
		from := ids[rng.Intn(nodes)]
		for !net.Alive(from) {
			from = ids[rng.Intn(nodes)]
		}
		pairs[i] = [2]runtime.NodeID{from, ids[rng.Intn(nodes)]}
	}
	issued := 0
	var done func(any, error)
	issue := func() {
		p := pairs[issued%len(pairs)]
		issued++
		net.Request(p[0], p[1], "req", 0, done)
	}
	done = func(any, error) {
		if issued < b.N {
			issue()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range min(inFlight, b.N) {
		issue()
	}
	eng.RunAll()
	b.StopTimer()
	if st := net.Stats(); st.RequestsIssued != uint64(b.N) {
		b.Fatalf("%d requests issued, want %d", st.RequestsIssued, b.N)
	}
}
