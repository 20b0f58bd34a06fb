// Package spans is the benchmark's tracing layer: an in-memory span
// recorder and the "sim-spans" runtime backend that wraps the
// deterministic simulator's two public seams (runtime.Clock and
// runtime.Transport) so every call into a layer is a span. It lives
// under benchmark/ because it measures the system from outside — no
// file of the system itself knows it exists.
package spans

import (
	"math/bits"
	"time"
)

// rawPerName caps how many individual spans are kept per name; beyond
// that a span only feeds the aggregate.
const rawPerName = 1000

// Raw is one recorded span: which span caused it, when it started
// (ns since the recorder was created) and how long it ran.
type Raw struct {
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// Agg is the per-name aggregate.
type Agg struct {
	Calls  uint64 `json:"calls"`
	SelfNs int64  `json:"self_ns"`
	// Hist buckets span self time by floor(log2(ns)); bucket 0 also
	// holds zero-length spans.
	Hist [40]uint64 `json:"hist_log2_ns"`
	Raw  []Raw      `json:"raw,omitempty"`
}

type frame struct {
	name     int
	start    int64
	childNs  int64
	children int64
}

// Recorder aggregates spans opened and closed on one goroutine. A
// stack gives each span its parent; a span's self time is its duration
// minus the time its children cover, minus the calibrated cost of
// recording each child.
type Recorder struct {
	base  time.Time
	names []string
	index map[string]int
	aggs  []Agg
	stack []frame
	cost  Cost
	// overhead is the recording cost taken off self times so far;
	// clamped is the part of it that could not be taken because a self
	// time would have gone below zero.
	overhead int64
	clamped  int64
}

// Cost is the calibrated price of recording one span: OutsideNs lands
// in the parent (the part of Begin/End outside the span's own two
// clock reads), InsideNs in the span itself (between the reads).
type Cost struct {
	OutsideNs int64
	InsideNs  int64
}

// NewRecorder returns an empty recorder that corrects self times by
// the given cost.
func NewRecorder(cost Cost) *Recorder {
	return &Recorder{
		base:  time.Now(),
		index: make(map[string]int),
		stack: make([]frame, 0, 64),
		cost:  cost,
	}
}

// Name interns a span name and returns its handle.
func (r *Recorder) Name(name string) int {
	if i, ok := r.index[name]; ok {
		return i
	}
	i := len(r.names)
	r.names = append(r.names, name)
	r.aggs = append(r.aggs, Agg{})
	r.index[name] = i
	return i
}

// Begin opens a span.
func (r *Recorder) Begin(name int) {
	r.stack = append(r.stack, frame{name: name, start: int64(time.Since(r.base))})
}

// End closes the innermost open span.
func (r *Recorder) End() {
	end := int64(time.Since(r.base))
	top := len(r.stack) - 1
	f := r.stack[top]
	r.stack = r.stack[:top]
	dur := end - f.start
	correction := r.cost.InsideNs + f.children*r.cost.OutsideNs
	self := dur - f.childNs - correction
	r.overhead += correction
	if self < 0 {
		r.clamped -= self
		self = 0
	}
	a := &r.aggs[f.name]
	a.Calls++
	a.SelfNs += self
	a.Hist[log2Bucket(self)]++
	if len(a.Raw) < rawPerName {
		parent := ""
		if top > 0 {
			parent = r.names[r.stack[top-1].name]
		}
		a.Raw = append(a.Raw, Raw{Parent: parent, StartNs: f.start, DurNs: dur, SelfNs: self})
	}
	if top > 0 {
		p := &r.stack[top-1]
		p.childNs += dur
		p.children++
	}
}

func log2Bucket(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns)) - 1
	if b >= len(Agg{}.Hist) {
		b = len(Agg{}.Hist) - 1
	}
	return b
}

// Depth returns the number of open spans (0 once a run has unwound).
func (r *Recorder) Depth() int { return len(r.stack) }

// OverheadNs is the recording cost actually removed from self times.
func (r *Recorder) OverheadNs() int64 { return r.overhead - r.clamped }

// Snapshot returns the aggregates by name.
func (r *Recorder) Snapshot() map[string]*Agg {
	out := make(map[string]*Agg, len(r.names))
	for i, n := range r.names {
		a := r.aggs[i]
		out[n] = &a
	}
	return out
}

// Calibrate times n empty begin/end pairs nested under one parent and
// splits the cost of recording one span into the part the parent sees
// and the part the span itself sees.
func Calibrate(n int) Cost {
	r := NewRecorder(Cost{})
	parent, child := r.Name("parent"), r.Name("child")
	r.Begin(parent)
	for i := 0; i < n; i++ {
		r.Begin(child)
		r.End()
	}
	r.End()
	return Cost{
		OutsideNs: r.aggs[parent].SelfNs / int64(n),
		InsideNs:  r.aggs[child].SelfNs / int64(n),
	}
}
