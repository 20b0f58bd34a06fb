// PetalUp flash crowd: a suddenly popular website floods one locality
// with new clients. Classic Flower-CDN funnels every arrival into a
// single directory peer whose view grows without bound; PetalUp-CDN
// (Sec. 4) splits the directory role across successive D-ring
// instances d^0, d^1, ... so no instance's load exceeds the limit.
//
// This example drives the two configurations with the same crowd and
// reports the resulting per-instance directory loads, using the
// experiment machinery in internal/petalup.
package main

import (
	"fmt"
	"log"

	"flowercdn/internal/flower"
	"flowercdn/internal/metrics"
	"flowercdn/internal/petalup"
	"flowercdn/internal/proto"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/simrt"
	"flowercdn/internal/topology"
	"flowercdn/internal/workload"
)

type world struct {
	*simrt.Runtime
	sys     *flower.System
	pop     *proto.Population
	queries *proto.Queries
}

// build assembles a small Flower/PetalUp deployment with a seeded
// D-ring, mirroring what the harness does for full experiments.
func build(seed uint64, cfg flower.Config) (*world, error) {
	rng := rnd.New(seed)
	tcfg := topology.DefaultConfig()
	tcfg.Localities = 2
	topo, err := topology.New(tcfg, rng.Split("topo"))
	if err != nil {
		return nil, err
	}
	rt := simrt.New(topo)
	clock, net := rt.Clock(), rt.Net()
	wcfg := workload.DefaultConfig()
	wcfg.Sites = 2
	wcfg.ActiveSites = 1
	wcfg.ObjectsPerSite = 100
	wcfg.QueryMeanInterval = 2 * runtime.Minute
	work, err := workload.New(wcfg)
	if err != nil {
		return nil, err
	}
	origins := workload.NewOrigins(work, net, topo, rng.Split("origins"))
	coll := metrics.NewCollector(runtime.Hour)
	cfg.Gossip.Period = 5 * runtime.Minute
	cfg.KeepaliveInterval = 10 * runtime.Minute
	sys, err := flower.NewSystem(cfg, proto.Env{
		Net: net, Oracle: net, Topo: topo, RNG: rng.Split("flower"), Workload: work,
		Origins: origins, Metrics: coll,
	})
	if err != nil {
		return nil, err
	}
	pop, err := proto.NewPopulation(topo, work, rng.Split("population"), 0, nil)
	if err != nil {
		return nil, err
	}
	// The seeds query as the harness's do.
	queries := proto.NewQueries(clock, work, coll, nil)
	for i := 0; i < pop.Seeds(); i++ {
		clock.Schedule(int64(i)*200, func() {
			id := pop.Seed(i)
			queries.Start(id, sys.SpawnSeed(id))
		}).Release()
	}
	rt.Run(clock.Now() + 10*runtime.Minute)
	return &world{Runtime: rt, sys: sys, pop: pop, queries: queries}, nil
}

func main() {
	spec := petalup.FlashCrowdSpec{
		Site:       0,
		Loc:        0,
		Arrivals:   60,
		ArrivalGap: 20 * runtime.Second,
		Settle:     90 * runtime.Minute,
	}
	fmt.Printf("flash crowd: %d clients hitting petal(site %d, locality %d)\n\n",
		spec.Arrivals, spec.Site, spec.Loc)

	const limit = 8
	up, err := build(1, petalup.Config(limit))
	if err != nil {
		log.Fatal(err)
	}
	upRep, err := petalup.RunFlashCrowd(up.sys, up.pop, up.queries, up, spec)
	if err != nil {
		log.Fatal(err)
	}

	classic, err := build(1, flower.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	clRep, err := petalup.RunFlashCrowd(classic.sys, classic.pop, classic.queries, classic, spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("classic Flower-CDN : %s\n", clRep)
	fmt.Printf("PetalUp (limit %2d) : %s\n\n", limit, upRep)
	fmt.Printf("classic max per-directory load grew to %d members;\n", clRep.MaxMembers)
	fmt.Printf("PetalUp split the petal across %d instances, max load %d.\n",
		upRep.Instances, upRep.MaxMembers)
}
