package proto

import (
	"flowercdn/internal/content"
	"flowercdn/internal/rnd"
	"flowercdn/internal/topology"
	"flowercdn/internal/workload"
)

// Population mints the individuals of one run, outside the protocols
// and in arrival order, from one stream: the same seed gives every
// protocol the same people. Seeds cover every (website, locality)
// couple, the size of the paper's initial D-ring; arrivals take their
// interest from the workload and a locality uniform over the k
// localities, or Zipf-concentrated into the low-index ones under a
// locality skew.
type Population struct {
	topo     *topology.Topology
	work     *workload.Workload
	rng      *rnd.RNG
	skew     *workload.Zipf // arrivals over localities; nil: uniform
	newStore func() *content.Store
}

// NewPopulation returns the minter of a run on topo and work that draws
// from rng. localitySkew is the Zipf exponent of arrivals over
// localities (0: uniform). newStore builds each individual's store; nil
// is content.NewStore, the paper's unbounded one.
func NewPopulation(topo *topology.Topology, work *workload.Workload, rng *rnd.RNG, localitySkew float64, newStore func() *content.Store) (*Population, error) {
	p := &Population{topo: topo, work: work, rng: rng, newStore: newStore}
	if p.newStore == nil {
		p.newStore = content.NewStore
	}
	if localitySkew > 0 {
		var err error
		if p.skew, err = workload.NewZipf(topo.Localities(), localitySkew); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Seeds is the bootstrap population of every run: one individual per
// (website, locality), the size of the paper's initial D-ring (one
// directory peer per couple). Member-ring protocols seed the same
// count of ordinary members, so population ramps stay comparable
// across protocols in one grid.
func (p *Population) Seeds() int { return p.work.Config().Sites * p.topo.Localities() }

// Seed mints bootstrap individual i (0 <= i < Seeds): website i/k in
// locality i%k.
func (p *Population) Seed(i int) Identity {
	k := p.topo.Localities()
	return p.At(content.SiteID(i/k), topology.Locality(i%k))
}

// Arrival mints an arriving client: interest by the workload's
// assignment, locality uniform or Zipf-skewed.
func (p *Population) Arrival() Identity {
	site := p.work.AssignInterest(p.rng)
	if p.skew != nil {
		return p.At(site, topology.Locality(p.skew.Rank(p.rng)))
	}
	return p.At(site, topology.Locality(p.rng.Intn(p.topo.Localities())))
}

// At mints an individual interested in site and placed in locality
// loc, with an empty store and its own workload stream.
func (p *Population) At(site content.SiteID, loc topology.Locality) Identity {
	return Identity{
		Site:      site,
		Placement: p.topo.PlaceAt(loc, p.rng),
		Store:     p.newStore(),
		Work:      p.rng.Split("work"),
	}
}
