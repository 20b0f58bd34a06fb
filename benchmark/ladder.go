package main

import (
	"bytes"
	"fmt"
	goruntime "runtime"
	"sort"
	"time"

	"flowercdn/internal/bloom"
	"flowercdn/internal/cache"
	"flowercdn/internal/chord"
	"flowercdn/internal/content"
	"flowercdn/internal/gossip"
	"flowercdn/internal/ids"
	"flowercdn/internal/koorde"
	"flowercdn/internal/metrics"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/sim"
	"flowercdn/internal/simrt"
	"flowercdn/internal/topology"
	"flowercdn/internal/trace"
	"flowercdn/internal/workload"
)

// The layer ladder: each rung drives one layer's public API alone, in
// the shape the traced rep of the workload it is reported under saw it
// used. Comparing a rung with the layer's in-situ span cost shows how
// much of the cell's time the layer's own microbenchmark explains.

// ladderShape is what the traced rep tells the engine and simnet rungs.
type ladderShape struct {
	// queueDepth is the engine's median pending-event count.
	queueDepth int
	// periodicShare is the share of fired events that were periodic
	// timer firings, not one-shot schedules.
	periodicShare float64
	// insituNsPerEvent is (sim.pop + sim.push self time) per event.
	insituNsPerEvent float64
}

// xorshift is a throwaway generator for rung inputs whose cost must
// not show in the measurement.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// ringLadder runs the rungs reported under ring-steady.
func ringLadder(out *runResult, shape ladderShape, seed uint64) error {
	ns, allocs := engineRung(shape)
	out.set("sim.ladder_ns_per_event", ns)
	out.set("sim.ladder_allocs_per_event", allocs)
	out.set("sim.insitu_over_ladder", shape.insituNsPerEvent/ns)

	send, request := simnetRung(shape.queueDepth, seed)
	out.set("simnet.ladder_ns_per_send", send)
	out.set("simnet.ladder_ns_per_request", request)

	us, hops, err := overlayRung(seed, false)
	if err != nil {
		return err
	}
	out.set("chord.ladder_us_per_lookup", us)
	out.set("chord.ladder_hops", hops)
	us, hops, err = overlayRung(seed, true)
	if err != nil {
		return err
	}
	out.set("koorde.ladder_us_per_route", us)
	out.set("koorde.ladder_hops", hops)
	return nil
}

// engineRung fires events on a bare sim.Engine whose queue is held at
// the traced depth: periodic timers and self-rescheduling one-shots in
// the traced ratio, every one-shot's handle retained the way protocol
// code retains its timers.
func engineRung(shape ladderShape) (nsPerEvent, allocsPerEvent float64) {
	const events = 1_000_000
	const meanDelay = 30 * sim.Second
	depth := shape.queueDepth
	if depth < 16 {
		depth = 16
	}
	// Same mean delay for both kinds, so the share of the queue each
	// holds is the share of firings it gets.
	periodic := int(float64(depth) * shape.periodicShare)
	oneShot := depth - periodic

	eng := sim.NewEngine()
	rng := xorshift(0x9e3779b97f4a7c15)
	fired := 0
	count := func() {
		fired++
		if fired == events {
			eng.Stop()
		}
	}
	for i := 0; i < periodic; i++ {
		eng.Every(int64(rng.next()%uint64(meanDelay)), meanDelay, count)
	}
	held := make([]*sim.Timer, 8*depth)
	var reschedule func()
	reschedule = func() {
		count()
		held[fired%len(held)] = eng.Schedule(1+int64(rng.next()%uint64(2*meanDelay)), reschedule)
	}
	for i := 0; i < oneShot; i++ {
		eng.Schedule(int64(rng.next()%uint64(2*meanDelay)), reschedule)
	}

	before := snapshot()
	eng.RunAll()
	cost := snapshot().since(before)
	goruntime.KeepAlive(held)
	return cost.wallS * 1e9 / events, cost.mallocs / events
}

// nopHandler answers every request with a prebuilt response.
type nopHandler struct{ resp any }

func (nopHandler) HandleMessage(runtime.NodeID, any)                {}
func (h nopHandler) HandleRequest(runtime.NodeID, any) (any, error) { return h.resp, nil }

// simnetRung times Send and Request (issue, delivery and, for Request,
// the response leg) on a simnet whose engine queue already holds the
// traced number of pending events.
func simnetRung(queueDepth int, seed uint64) (nsPerSend, nsPerRequest float64) {
	const ops = 200_000
	const batch = 1000
	const nodes = 64
	rng := rnd.New(seed).Split("simnet-rung")
	topo := topology.MustNew(topology.DefaultConfig(), rng.Split("topology"))

	run := func(issue func(net runtime.Transport, from, to runtime.NodeID)) float64 {
		rt := simrt.New(topo)
		net := rt.Net()
		var resp any = workload.FetchResp{Served: true}
		nids := make([]runtime.NodeID, nodes)
		for i := range nids {
			nids[i] = net.Join(nopHandler{resp: resp}, topo.Place(rng))
		}
		for i := 0; i < queueDepth; i++ {
			rt.Schedule(1<<50, func() {})
		}
		pick := xorshift(seed | 1)
		start := time.Now()
		for done := 0; done < ops; done += batch {
			for i := 0; i < batch; i++ {
				r := pick.next()
				issue(net, nids[r%nodes], nids[(r>>20)%nodes])
			}
			// Twice the topology's 500 ms latency cap: both legs land.
			rt.Run(rt.Now() + 1*runtime.Second)
		}
		return float64(time.Since(start).Nanoseconds()) / ops
	}

	var msg any = workload.FetchReq{Key: content.Key{Site: 1, Object: 2}}
	nsPerSend = run(func(net runtime.Transport, from, to runtime.NodeID) {
		net.Send(from, to, msg)
	})
	done := func(any, error) {}
	nsPerRequest = run(func(net runtime.Transport, from, to runtime.NodeID) {
		net.Request(from, to, msg, 0, done)
	})
	return nsPerSend, nsPerRequest
}

// overlayNode is what the chord and koorde rungs need of a ring member.
type overlayNode interface {
	Create()
	Join(gateway chord.Entry, cb func(error))
	Self() chord.Entry
	Successor() chord.Entry
	HandleMessage(from runtime.NodeID, msg any) bool
	HandleRequest(from runtime.NodeID, req any) (resp any, err error, handled bool)
}

// ringPeer is the minimal application peer around an overlay node.
type ringPeer struct {
	node overlayNode
	ring *overlayRing
}

type overlayRing struct {
	peers []*ringPeer
	// sorted is the membership by ring position, the reference every
	// resolution is checked against.
	sorted              []chord.Entry
	routed, hops, wrong int
}

func (p *ringPeer) OnRouted(key ids.ID, _ any, _ runtime.NodeID, hops int, _ []trace.Hop) {
	p.ring.routed++
	p.ring.hops += hops
	if p.ring.owner(key).Node != p.node.Self().Node {
		p.ring.wrong++
	}
}

func (p *ringPeer) HandleMessage(from runtime.NodeID, msg any) { p.node.HandleMessage(from, msg) }

func (p *ringPeer) HandleRequest(from runtime.NodeID, req any) (any, error) {
	if resp, err, ok := p.node.HandleRequest(from, req); ok {
		return resp, err
	}
	return nil, fmt.Errorf("overlay rung: unhandled request %T", req)
}

// consistent reports whether successor pointers form the sorted cycle.
func (r *overlayRing) consistent() bool {
	r.sorted = r.sorted[:0]
	bySelf := make(map[runtime.NodeID]*ringPeer, len(r.peers))
	for _, p := range r.peers {
		r.sorted = append(r.sorted, p.node.Self())
		bySelf[p.node.Self().Node] = p
	}
	sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i].ID < r.sorted[j].ID })
	for i, e := range r.sorted {
		if bySelf[e.Node].node.Successor().Node != r.sorted[(i+1)%len(r.sorted)].Node {
			return false
		}
	}
	return true
}

// owner is the reference successor of key.
func (r *overlayRing) owner(key ids.ID) chord.Entry {
	i := sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i].ID >= key })
	return r.sorted[i%len(r.sorted)]
}

// overlayRung builds a stabilised ring of ringSize members without
// churn and times resolving random keys from random members: chord's
// Node.Lookup, or koorde's Node.Route to the owner's OnRouted. The
// ring's own maintenance keeps ticking underneath, as in a cell.
func overlayRung(seed uint64, deBruijn bool) (usPerOp, meanHops float64, err error) {
	const ringSize = 256
	const ops = 4000
	// One join per stabilisation round: each newcomer's neighbours learn
	// of it before the next arrives, so the ring converges as it grows.
	joinEvery := chord.DefaultConfig().StabilizeInterval
	rng := rnd.New(seed).Split("overlay-rung")
	topo := topology.MustNew(topology.DefaultConfig(), rng.Split("topology"))
	rt := simrt.New(topo)
	net := rt.Net()
	ring := &overlayRing{}
	name := "chord"
	if deBruijn {
		name = "koorde"
	}

	joined := 1
	for i := 0; i < ringSize; i++ {
		p := &ringPeer{ring: ring}
		nid := net.Join(p, topo.Place(rng))
		id := ids.HashString(fmt.Sprintf("rung-%d", i))
		nodeRNG := rng.Split(fmt.Sprint(i))
		if deBruijn {
			p.node, err = koorde.NewNode(koorde.DefaultConfig(), net, nodeRNG, p, nid, id)
		} else {
			p.node, err = chord.NewNode(chord.DefaultConfig(), net, nodeRNG, p, nid, id)
		}
		if err != nil {
			return 0, 0, err
		}
		ring.peers = append(ring.peers, p)
		if i == 0 {
			p.node.Create()
			continue
		}
		gateway := ring.peers[0].node.Self()
		attempts := 0
		var join func()
		join = func() {
			attempts++
			p.node.Join(gateway, func(err error) {
				if err == nil {
					joined++
				} else if attempts < 5 {
					rt.Schedule(10*runtime.Second, join)
				}
			})
		}
		rt.Schedule(int64(i)*joinEvery, join)
	}
	rt.Run(rt.Now() + ringSize*joinEvery + 10*runtime.Minute)
	for tries := 0; !ring.consistent() && tries < 12; tries++ {
		rt.Run(rt.Now() + 5*runtime.Minute)
	}
	if joined != ringSize || !ring.consistent() {
		return 0, 0, fmt.Errorf("%s rung: ring of %d did not stabilise (%d joined)", name, ringSize, joined)
	}

	var payload any = workload.FetchReq{} // koorde delivers only non-nil payloads
	failed, resolved, hops := 0, 0, 0
	start := time.Now()
	for i := 0; i < ops; i++ {
		from := ring.peers[rng.Intn(ringSize)].node
		key := ids.ID(rng.Uint64())
		switch n := from.(type) {
		case *chord.Node:
			want := ring.owner(key)
			n.Lookup(key, func(owner chord.Entry, h int, err error) {
				switch {
				case err != nil:
					failed++
				case owner.Node != want.Node:
					ring.wrong++
				default:
					resolved++
					hops += h
				}
			})
		case *koorde.Node:
			n.Route(key, payload)
		}
	}
	rt.Run(rt.Now() + 20*runtime.Second)
	elapsed := time.Since(start)
	if deBruijn {
		resolved, hops = ring.routed, ring.hops
		failed = ops - resolved
	}
	if failed > 0 || ring.wrong > 0 {
		return 0, 0, fmt.Errorf("%s rung: %d of %d keys failed, %d resolved to the wrong owner", name, failed, ops, ring.wrong)
	}
	return float64(elapsed.Microseconds()) / ops, float64(hops) / float64(resolved), nil
}

// petalLadder runs the rungs reported under petal-busy, at that
// workload's sizes: 200-object catalog, stores of 40, gossip views of
// a petal's size.
func petalLadder(out *runResult, seed uint64) error {
	const objects, capacity = 200, 40
	rng := rnd.New(seed).Split("petal-rung")
	keys := make([]content.Key, objects)
	for i := range keys {
		keys[i] = content.Key{Site: 3, Object: content.ObjectID(i)}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	us, err := gossipRung(seed, keys[:capacity])
	if err != nil {
		return err
	}
	out.set("gossip.ladder_us_per_tick", us)

	per := func(ops int, d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(ops) }

	// Unbounded Add: fill fresh stores to the bounded capacity.
	const rounds = 5000
	start := time.Now()
	for r := 0; r < rounds; r++ {
		s := content.NewStore()
		for _, k := range keys[:capacity] {
			s.Add(k)
		}
	}
	out.set("content.ladder_ns_per_add", per(rounds*capacity, time.Since(start)))

	// Bounded Add: cycle the whole catalog through an LRU of 40, so
	// every Add past the first 40 evicts.
	lru, err := cache.New("lru", capacity)
	if err != nil {
		return err
	}
	bounded := content.NewStoreWith(content.StoreOptions{Policy: lru})
	start = time.Now()
	adds := 0
	for r := 0; r < rounds*capacity/objects; r++ {
		for _, k := range keys {
			bounded.Add(k)
			adds++
		}
	}
	out.set("content.ladder_ns_per_add_lru", per(adds, time.Since(start)))
	if bounded.Len() != capacity || bounded.Evictions() == 0 {
		return fmt.Errorf("content rung: bounded store holds %d keys after %d evictions", bounded.Len(), bounded.Evictions())
	}

	hits := 0
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, k := range keys[:capacity] {
			if bounded.Has(k) {
				hits++
			}
		}
	}
	out.set("content.ladder_ns_per_has", per(rounds*capacity, time.Since(start)))

	// Summary: every Add invalidates the interned filter, so each call
	// rebuilds it from the 40 resident keys.
	start = time.Now()
	for r := 0; r < rounds; r++ {
		bounded.Add(keys[r%objects])
		if bounded.Summary() == nil {
			return fmt.Errorf("content rung: nil summary")
		}
	}
	out.set("content.ladder_us_per_summary", per(rounds, time.Since(start))/1000)

	f := bloom.NewForCapacity(capacity, content.SummaryFPRate)
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, k := range keys[:capacity] {
			f.Add(k.Uint64())
		}
	}
	out.set("bloom.ladder_ns_per_add", per(rounds*capacity, time.Since(start)))
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, k := range keys[:capacity] {
			if f.Contains(k.Uint64()) {
				hits++
			}
		}
	}
	out.set("bloom.ladder_ns_per_contains", per(rounds*capacity, time.Since(start)))
	if hits == 0 {
		return fmt.Errorf("content rung: no key was ever found")
	}

	coll := metrics.NewCollector(runtime.Hour)
	pipe := metrics.NewPipeline(coll, metrics.NewCounters())
	const observations = 500_000
	start = time.Now()
	for i := 0; i < observations; i++ {
		pipe.Emit(metrics.QueryEvent(int64(i)*40, metrics.Outcome(i%4), int64(i%900), int64(i%300)))
	}
	out.set("metrics.ladder_ns_per_observe", per(observations, time.Since(start)))
	if coll.Total() != observations {
		return fmt.Errorf("metrics rung: collector saw %d of %d events", coll.Total(), observations)
	}
	return nil
}

// gossipApp is the hook a gossip.Protocol calls back into.
type gossipApp struct {
	meta      any
	exchanged *int
}

func (a gossipApp) SelfDescriptor() any                       { return a.meta }
func (a gossipApp) OnExchange(runtime.NodeID, []gossip.Entry) { *a.exchanged++ }
func (gossipApp) OnContactDead(runtime.NodeID)                {}

type gossipPeer struct{ g *gossip.Protocol }

func (gossipPeer) HandleMessage(runtime.NodeID, any) {}
func (p gossipPeer) HandleRequest(from runtime.NodeID, req any) (any, error) {
	if resp, err, ok := p.g.HandleRequest(from, req); ok {
		return resp, err
	}
	return nil, fmt.Errorf("gossip rung: unhandled request %T", req)
}

// gossipRung times one gossip round — Tick at the initiator, the
// shuffle RPC, the merge at both ends — among 64 peers whose contacts
// carry a Bloom summary of a full store, as a petal's do.
func gossipRung(seed uint64, stored []content.Key) (usPerTick float64, err error) {
	const peers, contacts, rounds = 64, 20, 300
	rng := rnd.New(seed).Split("gossip-rung")
	topo := topology.MustNew(topology.DefaultConfig(), rng.Split("topology"))
	rt := simrt.New(topo)
	net := rt.Net()
	store := content.NewStore()
	for _, k := range stored {
		store.Add(k)
	}
	meta := store.Summary()
	cfg := gossip.DefaultConfig()
	exchanged := 0
	ps := make([]*gossipPeer, peers)
	nids := make([]runtime.NodeID, peers)
	for i := range ps {
		ps[i] = &gossipPeer{}
		nids[i] = net.Join(ps[i], topo.Place(rng))
	}
	for i, p := range ps {
		p.g, err = gossip.New(cfg, net, rng.Split(fmt.Sprint(i)), nids[i], gossipApp{meta: meta, exchanged: &exchanged})
		if err != nil {
			return 0, err
		}
		for _, j := range rng.Perm(peers)[:contacts] {
			if j != i {
				p.g.AddContact(nids[j], meta)
			}
		}
	}
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, p := range ps {
			p.g.Tick()
		}
		rt.Run(rt.Now() + 2*runtime.Second)
	}
	elapsed := time.Since(start)
	// Both ends of every shuffle see the exchange.
	if exchanged != 2*peers*rounds {
		return 0, fmt.Errorf("gossip rung: %d exchanges observed, want %d", exchanged, 2*peers*rounds)
	}
	return float64(elapsed.Microseconds()) / (peers * rounds), nil
}

// codecLadder encodes and decodes the messages a traced run sampled at
// its Transport seam with both registered codecs. A type a codec
// rejects is skipped and listed; the binary codec must also re-encode
// every decoded message to the same bytes.
func codecLadder(out *runResult, corpus map[string][]any) error {
	types := make([]string, 0, len(corpus))
	for t := range corpus {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, name := range []string{"binary", "gob"} {
		codec, err := runtime.NewCodec(name)
		if err != nil {
			return err
		}
		var msgs []any
		var encoded [][]byte
		var skipped []string
		for _, t := range types {
			ok := true
			var enc [][]byte
			for _, m := range corpus[t] {
				b, err := codec.AppendMessage(nil, m)
				if err != nil {
					ok = false
					break
				}
				dec, err := codec.DecodeMessage(b)
				if err != nil {
					ok = false
					break
				}
				if name == "binary" {
					again, err := codec.AppendMessage(nil, dec)
					if err != nil || !bytes.Equal(again, b) {
						return fmt.Errorf("codec rung: binary re-encoding of %s differs from its first encoding", t)
					}
				}
				enc = append(enc, b)
			}
			if !ok {
				skipped = append(skipped, t)
				continue
			}
			msgs = append(msgs, corpus[t]...)
			encoded = append(encoded, enc...)
		}
		if len(skipped) > 0 {
			out.note("%s codec rejects %v; skipped", name, skipped)
		}
		if len(msgs) == 0 {
			return fmt.Errorf("codec rung: %s accepts none of the %d sampled types", name, len(types))
		}
		out.note("%s codec rung: %d messages of %d types", name, len(msgs), len(types)-len(skipped))

		const minTime = 100 * time.Millisecond
		var buf []byte
		bytesTotal := 0
		for _, b := range encoded {
			bytesTotal += len(b)
		}
		timeRounds := func(body func()) float64 {
			rounds := 0
			start := time.Now()
			for time.Since(start) < minTime {
				body()
				rounds++
			}
			return float64(time.Since(start).Nanoseconds()) / float64(rounds*len(msgs))
		}
		encNs := timeRounds(func() {
			for _, m := range msgs {
				buf, _ = codec.AppendMessage(buf[:0], m) // accepted above
			}
		})
		decNs := timeRounds(func() {
			for _, b := range encoded {
				codec.DecodeMessage(b) //nolint:errcheck // decoded above
			}
		})
		before := snapshot()
		for i, m := range msgs {
			buf, _ = codec.AppendMessage(buf[:0], m)
			codec.DecodeMessage(encoded[i]) //nolint:errcheck // decoded above
		}
		allocs := snapshot().since(before).mallocs / float64(len(msgs))

		out.set("runtime."+name+"_ns_per_encode", encNs)
		out.set("runtime."+name+"_ns_per_decode", decNs)
		out.set("runtime."+name+"_bytes_per_msg", float64(bytesTotal)/float64(len(msgs)))
		out.set("runtime."+name+"_allocs_per_roundtrip", allocs)
	}
	return nil
}
