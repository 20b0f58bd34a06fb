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
//
// A minting call builds the individual's store and workload stream in
// a Slot the caller owns (SeedIn, ArrivalIn, AtIn) — the harness hands
// out slots from pages that never move, so minting allocates nothing of
// its own. Seed and At wrap their In form with a fresh Slot each, for
// callers that keep no pool.
type Population struct {
	topo      *topology.Topology
	work      *workload.Workload
	rng       *rnd.RNG
	skew      *workload.Zipf // arrivals over localities; nil: uniform
	initStore func(*content.Store)
}

// Slot is where an individual's own records live: its content store and
// its workload stream (Identity.Store and Identity.Work point into it).
// A Slot must not move or be copied once minted into.
type Slot struct {
	Store content.Store
	Work  rnd.RNG
}

// NewPopulation returns the minter of a run on topo and work that draws
// from rng. localitySkew is the Zipf exponent of arrivals over
// localities (0: uniform). initStore makes each individual's store in
// its slot; nil leaves the zero content.Store, the paper's unbounded
// one.
func NewPopulation(topo *topology.Topology, work *workload.Workload, rng *rnd.RNG, localitySkew float64, initStore func(*content.Store)) (*Population, error) {
	p := &Population{topo: topo, work: work, rng: rng, initStore: initStore}
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
func (p *Population) Seed(i int) Identity { return p.SeedIn(i, new(Slot)) }

// SeedIn is Seed into slot.
func (p *Population) SeedIn(i int, slot *Slot) Identity {
	k := p.topo.Localities()
	return p.AtIn(content.SiteID(i/k), topology.Locality(i%k), slot)
}

// ArrivalIn mints an arriving client into slot: interest by the
// workload's assignment, locality uniform or Zipf-skewed.
func (p *Population) ArrivalIn(slot *Slot) Identity {
	site := p.work.AssignInterest(p.rng)
	if p.skew != nil {
		return p.AtIn(site, topology.Locality(p.skew.Rank(p.rng)), slot)
	}
	return p.AtIn(site, topology.Locality(p.rng.Intn(p.topo.Localities())), slot)
}

// At mints an individual interested in site and placed in locality
// loc, with an empty store and its own workload stream.
func (p *Population) At(site content.SiteID, loc topology.Locality) Identity {
	return p.AtIn(site, loc, new(Slot))
}

// AtIn is At into slot, a zero Slot: its store is made in place and
// its workload stream split from the population's stream.
func (p *Population) AtIn(site content.SiteID, loc topology.Locality, slot *Slot) Identity {
	place := p.topo.PlaceAt(loc, p.rng)
	if p.initStore != nil {
		p.initStore(&slot.Store)
	}
	p.rng.SplitInto(&slot.Work, "work")
	return Identity{Site: site, Placement: place, Store: &slot.Store, Work: &slot.Work}
}
