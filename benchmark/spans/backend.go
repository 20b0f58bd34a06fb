package spans

import (
	"reflect"
	goruntime "runtime"
	"sort"
	"strings"
	"time"

	"flowercdn/internal/runtime"
	"flowercdn/internal/sim"
	"flowercdn/internal/simnet"
	"flowercdn/internal/topology"
)

// Span names the backend opens itself; every other span is named after
// the package of the callback, handler message or RPC callback it wraps.
const (
	SpanPop     = "sim.pop"        // Run: the engine's run loop (self time = pop + dispatch)
	SpanPush    = "sim.push"       // Schedule / At / Every
	SpanSend    = "simnet.send"    // Transport.Send / Request
	SpanDeliver = "simnet.deliver" // simnet's own scheduled closures
)

// depthSampleEvery is how often (in wrapped callbacks) the engine's
// queue depth is sampled; sampling inside a callback adds no event.
const depthSampleEvery = 1024

// corpusPerType caps the messages kept per concrete type for the codec
// ladder.
const corpusPerType = 32

// Runtime is the sim backend rebuilt from public constructors with a
// decorated clock and transport. It is deterministic exactly like
// simrt: the decorators add spans, never events.
type Runtime struct {
	Rec *Recorder
	// RunNs is the time spent inside Run, the root span.
	RunNs int64
	// OneShotFired and PeriodicFired count the callbacks that ran, by
	// how they were scheduled (Schedule/At, or Every).
	OneShotFired, PeriodicFired uint64

	eng   *sim.Engine
	clock *clock
	net   *transport

	depths []int32
	corpus map[reflect.Type][]any
}

// Register adds a span-recording sim backend under name. Each run the
// harness starts on it is handed to onNew before the run begins, so
// the caller can read the recorder once the run returns.
func Register(name string, cost Cost, onNew func(*Runtime)) {
	runtime.RegisterBackend(name, func(cfg runtime.BackendConfig) (runtime.Runtime, error) {
		rt := New(cfg.Topo, cost)
		if cfg.LossRate > 0 {
			rt.net.inner.SetLossRate(cfg.LossRate, cfg.LossRNG)
		}
		onNew(rt)
		return rt, nil
	})
}

// New builds the span-recording backend over topo.
func New(topo *topology.Topology, cost Cost) *Runtime {
	rt := &Runtime{
		Rec:    NewRecorder(cost),
		eng:    sim.NewEngine(),
		corpus: make(map[reflect.Type][]any),
	}
	rt.clock = &clock{
		rt:     rt,
		inner:  rt.eng.Clock(),
		push:   rt.Rec.Name(SpanPush),
		byPC:   make(map[uintptr]int),
		byType: make(map[reflect.Type]int),
	}
	rt.net = &transport{
		inner: simnet.New(rt.clock, topo),
		rt:    rt,
		send:  rt.Rec.Name(SpanSend),
	}
	rt.net.Transport = rt.net.inner
	return rt
}

// Clock returns the decorated clock.
func (r *Runtime) Clock() runtime.Clock { return r.clock }

// Net returns the decorated transport.
func (r *Runtime) Net() runtime.Transport { return r.net }

// Run is the root span: its self time is the engine's run loop.
func (r *Runtime) Run(until int64) uint64 {
	start := time.Now()
	r.Rec.Begin(r.Rec.Name(SpanPop))
	n := r.eng.Run(until)
	r.Rec.End()
	r.RunNs += time.Since(start).Nanoseconds()
	return n
}

// QueueDepths returns the sampled Engine.Pending() values, sorted.
func (r *Runtime) QueueDepths() []int32 {
	out := append([]int32(nil), r.depths...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Corpus returns the messages sampled at Send/Request, by type name.
func (r *Runtime) Corpus() map[string][]any {
	out := make(map[string][]any, len(r.corpus))
	for t, msgs := range r.corpus {
		out[t.String()] = msgs
	}
	return out
}

func (r *Runtime) sample(msg any) {
	if msg == nil {
		return
	}
	t := reflect.TypeOf(msg)
	if kept := r.corpus[t]; len(kept) < corpusPerType {
		r.corpus[t] = append(kept, msg)
	}
}

// clock decorates the engine's runtime.Clock.
type clock struct {
	rt     *Runtime
	inner  runtime.Clock
	push   int
	byPC   map[uintptr]int
	byType map[reflect.Type]int
}

// layerOf maps a package to its span name: simnet's scheduled closures
// are deliveries, everything else is the package itself.
func layerOf(pkg string) string {
	if pkg == "simnet" {
		return SpanDeliver
	}
	return pkg
}

// pkgOf returns the last element of an import path ("" stays "").
func pkgOf(path string) string {
	return path[strings.LastIndexByte(path, '/')+1:]
}

// funcName names a callback by the package its function belongs to.
func (c *clock) funcName(fn any) int {
	pc := reflect.ValueOf(fn).Pointer()
	if n, ok := c.byPC[pc]; ok {
		return n
	}
	// "flowercdn/internal/chord.(*Node).stabilize-fm" → "chord".
	full := goruntime.FuncForPC(pc).Name()
	pkg := pkgOf(full)
	if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
		pkg = pkg[:dot]
	}
	n := c.rt.Rec.Name(layerOf(pkg))
	c.byPC[pc] = n
	return n
}

// typeName names a message by the package that declares its type,
// falling back to the handler's package for untyped (nil) payloads.
func (c *clock) typeName(msg any, fallback any) int {
	if msg == nil {
		msg = fallback
	}
	t := reflect.TypeOf(msg)
	if n, ok := c.byType[t]; ok {
		return n
	}
	e := t
	for e.Kind() == reflect.Pointer {
		e = e.Elem()
	}
	n := c.rt.Rec.Name(layerOf(pkgOf(e.PkgPath())))
	c.byType[t] = n
	return n
}

// wrap returns fn as a span that also counts its firing in fired.
func (c *clock) wrap(fn func(), fired *uint64) func() {
	name := c.funcName(fn)
	rt := c.rt
	return func() {
		rt.Rec.Begin(name)
		fn()
		rt.Rec.End()
		*fired++
		if (rt.OneShotFired+rt.PeriodicFired)%depthSampleEvery == 0 {
			rt.depths = append(rt.depths, int32(rt.eng.Pending()))
		}
	}
}

func (c *clock) Now() int64 { return c.inner.Now() }
func (c *clock) Stop()      { c.inner.Stop() }

func (c *clock) Schedule(delay int64, fn func()) runtime.Timer {
	c.rt.Rec.Begin(c.push)
	t := c.inner.Schedule(delay, c.wrap(fn, &c.rt.OneShotFired))
	c.rt.Rec.End()
	return t
}

func (c *clock) At(at int64, fn func()) runtime.Timer {
	c.rt.Rec.Begin(c.push)
	t := c.inner.At(at, c.wrap(fn, &c.rt.OneShotFired))
	c.rt.Rec.End()
	return t
}

func (c *clock) Every(firstDelay, period int64, fn func()) runtime.Ticker {
	c.rt.Rec.Begin(c.push)
	t := c.inner.Every(firstDelay, period, c.wrap(fn, &c.rt.PeriodicFired))
	c.rt.Rec.End()
	return t
}

// transport decorates simnet.Network: the embedded interface forwards
// everything the decorator does not span.
type transport struct {
	runtime.Transport
	inner *simnet.Network
	rt    *Runtime
	send  int
}

func (t *transport) Clock() runtime.Clock { return t.rt.clock }

func (t *transport) Join(h runtime.Handler, place topology.Placement) runtime.NodeID {
	return t.inner.Join(&handler{inner: h, rt: t.rt}, place)
}

func (t *transport) Send(from, to runtime.NodeID, msg any) {
	t.rt.sample(msg)
	t.rt.Rec.Begin(t.send)
	t.inner.Send(from, to, msg)
	t.rt.Rec.End()
}

func (t *transport) Request(from, to runtime.NodeID, req any, timeout int64, cb func(resp any, err error)) {
	t.rt.sample(req)
	rec := t.rt.Rec
	name := t.rt.clock.funcName(cb)
	rec.Begin(t.send)
	t.inner.Request(from, to, req, timeout, func(resp any, err error) {
		rec.Begin(name)
		cb(resp, err)
		rec.End()
	})
	rec.End()
}

// handler wraps a joined node so message and request handling are
// spans named after the message's package.
type handler struct {
	inner runtime.Handler
	rt    *Runtime
}

func (h *handler) HandleMessage(from runtime.NodeID, msg any) {
	rec := h.rt.Rec
	rec.Begin(h.rt.clock.typeName(msg, h.inner))
	h.inner.HandleMessage(from, msg)
	rec.End()
}

func (h *handler) HandleRequest(from runtime.NodeID, req any) (any, error) {
	rec := h.rt.Rec
	rec.Begin(h.rt.clock.typeName(req, h.inner))
	resp, err := h.inner.HandleRequest(from, req)
	rec.End()
	h.rt.sample(resp)
	return resp, err
}
