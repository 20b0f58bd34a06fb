package proto

import (
	"flowercdn/internal/metrics"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/workload"
)

// Queries is a run's query process, Sec. 6.1's workload rule coded once
// for every protocol: an active-site individual queries "on a regular
// basis, as soon as it arrives until it fails", for objects
// "unavailable in local storage". Each session draws its instants from
// a clock sub-stream of Identity.Work and its objects from an object
// sub-stream, against its own store: a store that differs between
// protocols cannot shift the clock, so one seed gives every protocol
// the same query instants (and the same objects while the stores agree).
type Queries struct {
	clock   runtime.Clock
	work    *workload.Workload
	metrics metrics.Emitter
	onTick  func(Identity, int64)
}

// NewQueries returns the query process on clock, counting into m the
// ticks a session had not joined for; onTick, if set, sees every tick.
func NewQueries(clock runtime.Clock, work *workload.Workload, m metrics.Emitter, onTick func(id Identity, at int64)) *Queries {
	return &Queries{clock: clock, work: work, metrics: m, onTick: onTick}
}

// Start arms the query timer of session s of id: the first tick after
// Workload.FirstQueryDelay, each next after Workload.NextQueryDelay. It
// returns nil for a non-active site, whose individuals never query.
func (q *Queries) Start(id Identity, s Session) *QueryTimer {
	if !q.work.Active(id.Site) {
		return nil
	}
	t := &QueryTimer{q: q, id: id, s: s}
	id.Work.SplitInto(&t.clock, "clock")
	id.Work.SplitInto(&t.objects, "object")
	t.onTick = t.tick
	t.timer = q.clock.Schedule(q.work.FirstQueryDelay(&t.clock), t.onTick)
	return t
}

// QueryTimer is one session's query clock. A tick hands the session an
// object its store lacks (a store that holds the whole catalog has
// nothing to ask for) and counts it under StatUnjoinedTicks if the
// session has not joined its overlay.
//
// The timer owns its two streams: they are split from Identity.Work
// into the record itself, so Start costs the record and its bound tick
// and nothing else. The individual keeps Work; the timer keeps the
// session only until Stop.
type QueryTimer struct {
	q              *Queries
	id             Identity
	s              Session
	clock, objects rnd.RNG
	timer          runtime.Timer
	onTick         func() // tick, bound once: a tick allocates nothing
}

func (t *QueryTimer) tick() {
	runtime.DropTimer(&t.timer) // fired: its record goes back to the clock
	q := t.q
	if q.onTick != nil {
		q.onTick(t.id, q.clock.Now())
	}
	if key, ok := q.work.PickObject(&t.objects, t.id.Site, t.id.Store); ok && !t.s.Query(key) {
		q.metrics.Emit(metrics.CounterEvent(q.clock.Now(), StatUnjoinedTicks, 1))
	}
	t.timer = q.clock.Schedule(q.work.NextQueryDelay(&t.clock), t.onTick)
}

// Stop cancels the timer and forgets the session, which a stopped timer
// must not keep reachable. Stop on nil is a no-op.
func (t *QueryTimer) Stop() {
	if t == nil {
		return
	}
	runtime.DropTimer(&t.timer)
	t.s = nil
}
