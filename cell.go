package flowercdn

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"

	"flowercdn/internal/cli"
)

// BindCell declares the cell flags on f, bound to c's fields and
// defaulting to what they hold; the flags a wall-clock demo takes from
// the command line are tagged live, the rest sim. A cell is one
// experiment, every Config field but MeasureMem and Trace, and
// this table its only definition: `flowersim <cell>` replays any cell.
func BindCell(f *cli.Flags, c *Config, live, sim cli.Tag) {
	if c.CachePolicy == "" {
		c.CachePolicy = "none" // the paper's unbounded store has one spelling here, so "" and "none" render alike
	}
	cli.Bind(f, live, (*string)(&c.Protocol), "protocol", fmt.Sprintf("one of %v", Protocols()))
	cli.Bind(f, live, &c.Seed, "seed", "simulation seed")
	cli.Bind(f, live, &c.MessageLossRate, "loss", "one-way message loss rate (0 = reliable links)")
	cli.Bind(f, live, &c.CachePolicy, "cache-policy", fmt.Sprintf("per-peer store eviction policy, one of %v", CachePolicies()))
	cli.Bind(f, live, &c.CacheCapacity, "cache-capacity", "per-peer store capacity in objects (required >= 1 for any policy but none)")
	cli.Bind(f, sim, &c.Population, "p", "mean population size P")
	cli.Bind(f, sim, &c.Hours, "hours", "simulated duration in hours")
	cli.Bind(f, sim, &c.Sites, "sites", "number of websites |W|")
	cli.Bind(f, sim, &c.ActiveSites, "active", "number of active (queried) websites")
	cli.Bind(f, sim, &c.ObjectsPerSite, "objects", "objects per website")
	cli.Bind(f, sim, &c.Localities, "k", "number of localities")
	cli.Bind(f, sim, &c.MeanUptimeMinutes, "uptime", "mean peer uptime m, minutes")
	cli.Bind(f, sim, &c.QueryEveryMinutes, "query-every", "mean minutes between queries")
	cli.Bind(f, sim, &c.GossipEveryMinutes, "gossip-every", "gossip/keepalive period, minutes")
	cli.Bind(f, sim, &c.PushThreshold, "push", "push threshold")
	cli.Bind(f, sim, &c.ZipfAlpha, "zipf", "Zipf popularity exponent")
	cli.Bind(f, sim, &c.DirCollaboration, "collab", "directory collaboration across localities")
	cli.Bind(f, sim, &c.PetalUpLoadLimit, "load-limit", "PetalUp per-directory load limit")
	cli.Bind(f, sim, &c.ExactSummaries, "exact-summaries", "exact key sets instead of Bloom gossip summaries (ablation)")
	cli.Bind(f, sim, &c.LocalitySkew, "locality-skew", "Zipf skew of client arrivals over localities (0 = uniform)")
	cli.Bind(f, sim, &c.InterestSkew, "interest-skew", "Zipf skew of peer interest over websites (0 = uniform)")
}

// cellFlags is the cell table on a flag set of its own, bound to *c.
func cellFlags(c *Config) *cli.Flags {
	f := cli.NewFlags(flag.NewFlagSet("cell", flag.ContinueOnError))
	f.SetOutput(io.Discard)
	BindCell(f, c, 0, 0)
	return f
}

// Cell renders c in canonical form: the cell flags whose value differs
// from QuickConfig's, in lexical order, as "-name=value". ParseCell
// over QuickConfig reads it back.
func (c Config) Cell() []string {
	quick := QuickConfig()
	base := cellFlags(&quick)
	var args []string
	cellFlags(&c).VisitAll(func(fl *flag.Flag) {
		if fl.DefValue != base.Lookup(fl.Name).DefValue {
			args = append(args, "-"+fl.Name+"="+fl.DefValue)
		}
	})
	return args
}

// ParseCell returns base with the cell flags in args applied in order,
// so a flag given after a scenario preset overrides it.
func ParseCell(base Config, args ...string) (Config, error) {
	f := cellFlags(&base)
	err := f.Parse(args)
	if err == nil && f.NArg() > 0 {
		err = fmt.Errorf("%q is not a cell flag", f.Arg(0))
	}
	if err != nil {
		return base, fmt.Errorf("flowercdn: cell %q: %w", args, err)
	}
	return base, nil
}

// scenarios are the workload presets, each the cell flags it sets, so
// they layer over quick- and paper-scale bases alike.
var scenarios = map[string]string{
	"table1": "", // the paper's Table 1 workload
	// The flash crowd PetalUp-CDN targets (Sec. 4): ~60% of peers want
	// site 0, queried 3x as often with a sharper popularity curve.
	"flash-crowd": "-active=1 -interest-skew=2 -query-every=2 -zipf=1.2",
	// Client arrivals concentrated into a few localities.
	"locality-skew": "-locality-skew=1.2",
	// LRU stores well under the catalog (the capacity grid varies it).
	"cache-pressure": "-cache-capacity=16 -cache-policy=lru",
}

// Scenario returns the cell flags of the named preset, for ParseCell.
func Scenario(name string) ([]string, error) {
	if cell, ok := scenarios[name]; ok {
		return strings.Fields(cell), nil
	}
	return nil, fmt.Errorf("flowercdn: unknown scenario %q (have %v)", name, slices.Sorted(maps.Keys(scenarios)))
}
