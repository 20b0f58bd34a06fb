// Package topology models the underlying physical network the paper's
// simulation generates: peers connected by links of variable latency
// between 10 and 500 ms, partitioned into k physical localities with a
// landmark-based technique (Ratnasamy et al. [10]).
//
// The model places k landmarks in the unit square. Each arriving peer
// is associated with one landmark and placed at the landmark plus
// Gaussian noise, so peers of one locality form a latency cluster. The
// one-way latency between two points is an affine function of their
// Euclidean distance, clamped to [MinLatency, MaxLatency]. Locality of
// a point is the index of its nearest landmark, exactly the landmark
// binning trick of [10].
package topology

import (
	"fmt"
	"math"

	"flowercdn/internal/rnd"
)

// Locality identifies one of the k physical localities.
type Locality int

// Point is a position in the unit square.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Placement is a peer's position and derived locality.
type Placement struct {
	Pos Point
	Loc Locality
}

// Config controls the latency model. The zero value is not usable; use
// DefaultConfig.
type Config struct {
	// Localities is k, the number of landmark clusters (paper: 6).
	Localities int
	// MinLatency and MaxLatency clamp one-way link latency (paper:
	// 10–500 ms).
	MinLatency, MaxLatency int64
}

const (
	// clusterStdDev is the standard deviation of the Gaussian noise
	// around a landmark, in unit-square units.
	clusterStdDev = 0.05
	// latencyScale converts unit-square distance to milliseconds. It is
	// chosen so that intra-locality latencies mostly fall well under
	// 100 ms while cross-locality pairs span roughly 100–500 ms.
	latencyScale = 330
)

// DefaultConfig reproduces the paper's Table 1 network: latencies in
// [10, 500] ms and k = 6 localities.
func DefaultConfig() Config {
	return Config{
		Localities: 6,
		MinLatency: 10,
		MaxLatency: 500,
	}
}

// Topology is the immutable latency model for one simulation run. It is
// safe to share between all nodes because it has no mutable state after
// construction; peer placements are drawn from it but stored by the
// network layer.
type Topology struct {
	cfg       Config
	landmarks []Point
}

// New builds a topology with cfg.Localities landmarks laid out on a
// jittered grid covering the unit square.
func New(cfg Config, rng *rnd.RNG) (*Topology, error) {
	if cfg.Localities < 1 {
		return nil, fmt.Errorf("topology: need at least 1 locality, got %d", cfg.Localities)
	}
	if cfg.MinLatency < 0 || cfg.MaxLatency < cfg.MinLatency {
		return nil, fmt.Errorf("topology: invalid latency bounds [%d, %d]", cfg.MinLatency, cfg.MaxLatency)
	}
	t := &Topology{cfg: cfg}
	t.landmarks = layoutLandmarks(cfg.Localities, rng)
	return t, nil
}

// MustNew is New but panics on error; for use with known-good configs.
func MustNew(cfg Config, rng *rnd.RNG) *Topology {
	t, err := New(cfg, rng)
	if err != nil {
		panic(err)
	}
	return t
}

// layoutLandmarks arranges k landmarks on a near-square grid spanning
// the unit square, with slight jitter so distances are not degenerate.
func layoutLandmarks(k int, rng *rnd.RNG) []Point {
	cols := int(math.Ceil(math.Sqrt(float64(k))))
	rows := (k + cols - 1) / cols
	pts := make([]Point, 0, k)
	for i := 0; i < k; i++ {
		r, c := i/cols, i%cols
		x := (float64(c) + 0.5) / float64(cols)
		y := (float64(r) + 0.5) / float64(rows)
		x += rng.Uniform(-0.03, 0.03)
		y += rng.Uniform(-0.03, 0.03)
		pts = append(pts, Point{clamp01(x), clamp01(y)})
	}
	return pts
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Localities returns k.
func (t *Topology) Localities() int { return t.cfg.Localities }

// Landmark returns the position of landmark l.
func (t *Topology) Landmark(l Locality) Point { return t.landmarks[l] }

// Config returns the configuration the topology was built with.
func (t *Topology) Config() Config { return t.cfg }

// Place draws a placement for a new peer: a uniformly random landmark
// and Gaussian scatter around it. The reported locality is recomputed
// as the nearest landmark, so a peer scattered into a neighbouring
// cluster is (correctly) assigned to that cluster.
func (t *Topology) Place(rng *rnd.RNG) Placement {
	l := Locality(rng.Intn(len(t.landmarks)))
	return t.PlaceAt(l, rng)
}

// PlaceAt draws a placement scattered around a specific landmark. The
// derived locality is still the nearest landmark to the drawn point.
func (t *Topology) PlaceAt(l Locality, rng *rnd.RNG) Placement {
	if int(l) < 0 || int(l) >= len(t.landmarks) {
		panic(fmt.Sprintf("topology: PlaceAt locality %d out of range", l))
	}
	lm := t.landmarks[l]
	p := Point{
		X: clamp01(rng.Norm(lm.X, clusterStdDev)),
		Y: clamp01(rng.Norm(lm.Y, clusterStdDev)),
	}
	return Placement{Pos: p, Loc: t.LocalityOf(p)}
}

// LocalityOf bins a point to its nearest landmark.
func (t *Topology) LocalityOf(p Point) Locality {
	best, bestD := Locality(0), math.Inf(1)
	for i, lm := range t.landmarks {
		if d := p.Dist(lm); d < bestD {
			best, bestD = Locality(i), d
		}
	}
	return best
}

// Latency returns the one-way latency in simulated milliseconds between
// two points. It is symmetric and deterministic: an affine function of
// Euclidean distance clamped into [MinLatency, MaxLatency].
func (t *Topology) Latency(a, b Point) int64 {
	d := a.Dist(b)
	ms := int64(math.Round(float64(t.cfg.MinLatency) + d*latencyScale))
	if ms < t.cfg.MinLatency {
		ms = t.cfg.MinLatency
	}
	if ms > t.cfg.MaxLatency {
		ms = t.cfg.MaxLatency
	}
	return ms
}
