package harness

import (
	"fmt"
	"sort"
	"strings"

	"flowercdn/internal/proto"
	"flowercdn/internal/runtime"
)

// FormatTable1 renders the run's parameter sheet in the shape of the
// paper's Table 1.
func FormatTable1(cfg Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Simulation Parameters\n")
	fmt.Fprintf(&b, "  %-28s %v\n", "Latency (ms)", fmt.Sprintf("%d-%d", cfg.Topology.MinLatency, cfg.Topology.MaxLatency))
	fmt.Fprintf(&b, "  %-28s %d\n", "Nb of localities (k)", cfg.Topology.Localities)
	fmt.Fprintf(&b, "  %-28s %d\n", "Nb of websites (|W|)", cfg.Workload.Sites)
	fmt.Fprintf(&b, "  %-28s %d\n", "Mean population size (P)", cfg.Population)
	fmt.Fprintf(&b, "  %-28s %d min\n", "Mean uptime of a peer (m)", cfg.MeanUptime/runtime.Minute)
	fmt.Fprintf(&b, "  %-28s %d\n", "Nb of objects/website", cfg.Workload.ObjectsPerSite)
	fmt.Fprintf(&b, "  %-28s 1 query every %d min\n", "Query rate at a peer", cfg.Workload.QueryMeanInterval/runtime.Minute)
	fmt.Fprintf(&b, "  %-28s %d (of %d)\n", "Active websites", cfg.Workload.ActiveSites, cfg.Workload.Sites)
	// The fallbacks mirror flower.DefaultConfig's Table 1 values (the
	// harness no longer imports protocol packages); the façade always
	// lowers both keys, so the fallbacks only show for direct harness
	// callers that left Options empty.
	fmt.Fprintf(&b, "  %-28s %.2f\n", "Push threshold", cfg.Options.Float("push-threshold", 0.5))
	fmt.Fprintf(&b, "  %-28s %d min\n", "Gossip/keepalive period", cfg.Options.Duration("gossip-period", runtime.Hour)/runtime.Minute)
	return b.String()
}

// FormatFig3 renders the hit-ratio-over-time comparison (paper Fig. 3)
// as one row per window.
func FormatFig3(f, s *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: hit ratio over time (P=%d)\n", f.Population)
	fmt.Fprintf(&b, "  %-8s %-12s %-12s\n", "hour", "Flower-CDN", "Squirrel")
	n := len(f.Series)
	if len(s.Series) > n {
		n = len(s.Series)
	}
	for i := 0; i < n; i++ {
		var fv, sv string
		if i < len(f.Series) {
			fv = fmt.Sprintf("%.3f", f.Series[i].HitRatio)
		}
		if i < len(s.Series) {
			sv = fmt.Sprintf("%.3f", s.Series[i].HitRatio)
		}
		fmt.Fprintf(&b, "  %-8d %-12s %-12s\n", i+1, fv, sv)
	}
	improve := 0.0
	if s.TailHitRatio > 0 {
		improve = (f.TailHitRatio - s.TailHitRatio) / s.TailHitRatio * 100
	}
	fmt.Fprintf(&b, "  final: Flower %.3f vs Squirrel %.3f (improvement %+.0f%%)\n",
		f.TailHitRatio, s.TailHitRatio, improve)
	return b.String()
}

// FormatFig4 renders the lookup-latency distributions (paper Fig. 4).
func FormatFig4(f, s *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: lookup latency distribution (P=%d)\n", f.Population)
	fmt.Fprintf(&b, "  Flower-CDN : %s\n", f.Lookup)
	fmt.Fprintf(&b, "  Squirrel   : %s\n", s.Lookup)
	fmt.Fprintf(&b, "  within 150 ms: Flower %.0f%%, Squirrel %.0f%% (paper: 66%% vs n/a)\n",
		100*f.LookupWithin150ms(), 100*s.LookupWithin150ms())
	fmt.Fprintf(&b, "  beyond 1200 ms: Flower %.0f%%, Squirrel %.0f%% (paper: n/a vs 75%%)\n",
		100*f.LookupBeyond1200ms(), 100*s.LookupBeyond1200ms())
	return b.String()
}

// FormatFig5 renders the transfer-distance distributions (paper Fig. 5).
func FormatFig5(f, s *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: transfer distance distribution (P=%d)\n", f.Population)
	fmt.Fprintf(&b, "  Flower-CDN : %s\n", f.Transfer)
	fmt.Fprintf(&b, "  Squirrel   : %s\n", s.Transfer)
	fmt.Fprintf(&b, "  within 100 ms: Flower %.0f%%, Squirrel %.0f%% (paper: 62%% vs 22%%)\n",
		100*f.TransferWithin100ms(), 100*s.TransferWithin100ms())
	return b.String()
}

// FormatTable2 renders the scalability sweep (paper Table 2).
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Scalability in Flower-CDN and Squirrel\n")
	fmt.Fprintf(&b, "  %-6s %-12s %-10s %-12s %-12s\n", "P", "approach", "hit ratio", "lookup", "transfer")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-6d %-12s %-10.2f %-12s %-12s\n", r.Population, "Squirrel",
			r.Squirrel.TailHitRatio, fmtMs(r.Squirrel.MeanLookupMs), fmtMs(r.Squirrel.MeanTransferMs))
		fmt.Fprintf(&b, "  %-6s %-12s %-10.2f %-12s %-12s\n", "", "Flower-CDN",
			r.Flower.TailHitRatio, fmtMs(r.Flower.MeanLookupMs), fmtMs(r.Flower.MeanTransferMs))
	}
	if last := len(rows) - 1; last >= 0 {
		r := rows[last]
		if r.Flower.MeanLookupMs > 0 && r.Flower.MeanTransferMs > 0 {
			fmt.Fprintf(&b, "  improvement at P=%d: lookup x%.1f, transfer x%.1f\n",
				r.Population,
				r.Squirrel.MeanLookupMs/r.Flower.MeanLookupMs,
				r.Squirrel.MeanTransferMs/r.Flower.MeanTransferMs)
		}
	}
	return b.String()
}

func fmtMs(v float64) string { return fmt.Sprintf("%.0f ms", v) }

// fmtDuration prints an experiment horizon in hours at paper scale and
// in seconds for sub-hour (compressed demo) runs.
func fmtDuration(ms int64) string {
	if ms >= runtime.Hour {
		return fmt.Sprintf("%d h", ms/runtime.Hour)
	}
	return fmt.Sprintf("%.1f s", float64(ms)/float64(runtime.Second))
}

// FormatSummary renders one run's headline numbers ("tail n/a": no
// tail queries), and a warning when the workload ran dry (DriesUp).
func FormatSummary(r *Result) string {
	var b strings.Builder
	tail := "n/a"
	if r.TailQueries > 0 {
		tail = fmt.Sprintf("%.3f", r.TailHitRatio)
	}
	fmt.Fprintf(&b, "%s P=%d (%s): hit ratio %.3f (tail %s), lookup %.0f ms, transfer %.0f ms\n",
		r.Protocol, r.Population, fmtDuration(r.Duration), r.HitRatio, tail, r.MeanLookupMs, r.MeanTransferMs)
	fmt.Fprintf(&b, "  queries %d (hits %d: gossip %d, directory %d, summary %d; misses %d)\n",
		r.Queries, r.Hits, r.GossipHits, r.DirectoryHits, r.DirSummaryHits, r.Misses)
	fmt.Fprintf(&b, "  alive peers %d, events %d, messages %d\n",
		r.AlivePeers, r.EventsProcessed, r.NetStats.MessagesSent)
	// Generic protocol stats, sorted for stable output; the well-known
	// gauges already printed above are skipped.
	keys := make([]string, 0, len(r.Proto))
	for k := range r.Proto {
		if k == proto.StatAlivePeers {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > 0 {
		fmt.Fprintf(&b, " ")
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%g", k, r.Proto[k])
		}
		fmt.Fprintf(&b, "\n")
	}
	if r.DriesUp < r.Duration {
		fmt.Fprintf(&b, "warning: the workload ran dry at %s, before the %s horizon: later windows measure stragglers\n",
			fmtDuration(r.DriesUp), fmtDuration(r.Duration))
	}
	return b.String()
}
