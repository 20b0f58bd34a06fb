package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"flowercdn/benchmark/spans"
)

// metricValue is one reported number. Samples are the per-unit values
// the median was taken from, where there are several; -compare reads
// the spread off them. Raw are the same units as measured, where the
// samples leave out stolen time or were scaled to the reference machine.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
	Raw     []float64 `json:"raw,omitempty"`
}

// runResult is everything one run of one workload reports. Untraced
// runs carry the end-to-end metrics, traced runs the per-layer ones.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Traced    bool                   `json:"traced"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Reference holds the reference-kernel readings an untraced run
	// scaled its timed units' CPU time by: one before the first unit, one
	// after each. StolenShare is, per timed unit, the CPU-seconds stolen
	// from the machine per second of wall-clock.
	Reference   *speedometer `json:"reference_kernel,omitempty"`
	StolenShare []float64    `json:"stolen_share,omitempty"`
	// Checks are the output values that must not change between runs of
	// one cell: simulated behaviour, not speed.
	Checks any                   `json:"checks,omitempty"`
	Spans  map[string]*spans.Agg `json:"spans,omitempty"`
	Notes  []string              `json:"notes,omitempty"`
}

func newRunResult(workload string, seed uint64, traced bool) *runResult {
	return &runResult{Workload: workload, Seed: seed, Traced: traced, Metrics: map[string]metricValue{}}
}

var metricUnits = func() map[string]string {
	units := map[string]string{}
	for _, m := range endToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range perLayer {
		units[m.Name] = m.Unit
	}
	return units
}()

// set records a metric. Naming one the spec does not list, or one
// already set, is a bug in the benchmark.
func (r *runResult) set(name string, value float64, samples ...float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not in the spec", name))
	}
	if _, dup := r.Metrics[name]; dup {
		panic(fmt.Sprintf("benchmark: metric %q set twice", name))
	}
	r.Metrics[name] = metricValue{Value: value, Unit: unit, Samples: samples}
}

// unit is what one timed unit of a run (a rep, a window) consumed and
// produced: ops operations that put wireBytes on the modelled or real
// wire.
type unit struct {
	cost      usageDelta
	ops       float64
	wireBytes float64
}

// setFromUnits reports what an untraced run derives from its timed
// units: the median over the units. A unit's rate is taken over the
// wall-clock the program had, without the time stolen from the machine;
// its CPU time is scaled to the reference machine by the kernel readings
// on either side of it.
func (r *runResult) setFromUnits(units []unit, speed *speedometer) {
	var rate, cpu, allocs, allocKB, wire, rawRate, rawCPU []float64
	for i, u := range units {
		rawRate = append(rawRate, u.ops/u.cost.wallS)
		rawCPU = append(rawCPU, 1e6*(u.cost.userS+u.cost.sysS)/u.ops)
		rate = append(rate, u.ops/u.cost.ownWallS())
		cpu = append(cpu, rawCPU[i]*speed.cpuSpeed(i))
		allocs = append(allocs, u.cost.mallocs/u.ops)
		allocKB = append(allocKB, u.cost.allocB/1024/u.ops)
		wire = append(wire, u.wireBytes/u.ops)
		r.StolenShare = append(r.StolenShare, u.cost.stolenS/u.cost.wallS)
	}
	r.set("ops_per_s", median(rate), rate...)
	r.set("cpu_us_per_op", median(cpu), cpu...)
	r.setRaw("ops_per_s", rawRate)
	r.setRaw("cpu_us_per_op", rawCPU)
	r.set("allocs_per_op", median(allocs), allocs...)
	r.set("alloc_kb_per_op", median(allocKB), allocKB...)
	r.set("wire_bytes_per_op", median(wire), wire...)
	r.Reference = speed
	r.note("as measured: %.6g op/s, %.6g CPU us per op; %.3g CPU-seconds stolen per second", median(rawRate), median(rawCPU), median(r.StolenShare))
}

// setupCost is what set-up consumed: the process's CPU seconds before
// the first set-up, then each repetition of set-up.
type setupCost struct {
	readyCPU float64
	units    []usageDelta
}

// setSetup reports setup_s: the CPU time before the first set-up plus
// the median repetition's wall-clock, without the time stolen from the
// machine during it.
func (r *runResult) setSetup(c setupCost) {
	var own, raw []float64
	for _, u := range c.units {
		own = append(own, u.ownWallS())
		raw = append(raw, u.wallS)
	}
	r.set("setup_s", c.readyCPU+median(own), own...)
	r.setRaw("setup_s", raw)
}

// setRaw attaches the as-measured units to a metric already set.
func (r *runResult) setRaw(name string, raw []float64) {
	v := r.Metrics[name]
	v.Raw = raw
	r.Metrics[name] = v
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// finish checks the run reported what its kind of run must: every
// end-to-end metric, non-zero, from an untraced run; every per-layer
// metric from a traced one, where a layer the workload bypasses reads 0.
func (r *runResult) finish() error {
	want := endToEnd
	if r.Traced {
		want = perLayer
	}
	for _, m := range want {
		v, ok := r.Metrics[m.Name]
		if !ok && r.Traced {
			r.Metrics[m.Name] = metricValue{Unit: m.Unit}
			continue
		}
		if !ok {
			return fmt.Errorf("%s: end-to-end metric %s not measured", r.Workload, m.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.Workload, m.Name, v.Value)
		}
		if !r.Traced && v.Value <= 0 {
			return fmt.Errorf("%s: end-to-end metric %s is %v", r.Workload, m.Name, v.Value)
		}
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("%s: %d metrics reported, the spec lists %d", r.Workload, len(r.Metrics), len(want))
	}
	if r.Attempted < 1 {
		return fmt.Errorf("%s: nothing attempted", r.Workload)
	}
	return nil
}

// print writes every metric by name with its unit, then — as the last
// line — the one JSON object the driver reads.
func (r *runResult) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, n := range names {
		v := r.Metrics[n]
		fmt.Fprintf(w, "%-34s %16.6g %s\n", n, v.Value, v.Unit)
	}
	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{Correct: true, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]lineMetric{}}
	for n, v := range r.Metrics {
		line.Metrics[n] = lineMetric{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
