package flowercdn

// Benchmarks regenerating every table and figure of the paper's
// evaluation (Sec. 6), plus ablations of the knobs the paper fixes
// (gossip period, push threshold, collaboration, summaries, localities,
// message loss). Each bench runs the relevant experiment at a reduced scale that preserves
// the paper's proportions (use `cmd/flowerbench -full` for the 24-hour,
// P-up-to-5000 runs) and reports the headline numbers as custom bench
// metrics, so `go test -bench=.` doubles as a regression harness for
// the reproduction's *shapes*: who wins, by roughly what factor, and
// where the crossovers fall.

import (
	"fmt"
	goruntime "runtime"
	"testing"
)

// benchConfig is the shared reduced-scale setup.
func benchConfig() Config {
	cfg := QuickConfig()
	cfg.Population = 250
	cfg.Hours = 5
	cfg.Sites = 12
	cfg.ActiveSites = 2
	cfg.ObjectsPerSite = 150
	return cfg
}

// BenchmarkTable1Defaults measures a full configuration lowering and
// validation pass — the Table 1 parameter sheet machinery.
func BenchmarkTable1Defaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := FormatTable1(DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3HitRatioOverTime regenerates Fig. 3: hit ratio over
// time for Flower-CDN vs Squirrel under churn.
func BenchmarkFig3HitRatioOverTime(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		f, s, err := RunComparison(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.TailHitRatio, "flower-hit")
		b.ReportMetric(s.TailHitRatio, "squirrel-hit")
		if s.TailHitRatio > 0 {
			b.ReportMetric(f.TailHitRatio/s.TailHitRatio, "hit-factor")
		}
	}
}

// BenchmarkFig4LookupLatencyDistribution regenerates Fig. 4: the
// lookup-latency distributions and their headline CDF points.
func BenchmarkFig4LookupLatencyDistribution(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		f, s, err := RunComparison(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.MeanLookupMs, "flower-lookup-ms")
		b.ReportMetric(s.MeanLookupMs, "squirrel-lookup-ms")
		b.ReportMetric(100*f.LookupWithin150ms(), "flower-within-150ms-%")
		b.ReportMetric(100*s.LookupBeyond1200ms(), "squirrel-beyond-1200ms-%")
	}
}

// BenchmarkFig5TransferDistanceDistribution regenerates Fig. 5: the
// transfer-distance distributions.
func BenchmarkFig5TransferDistanceDistribution(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		f, s, err := RunComparison(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.MeanTransferMs, "flower-transfer-ms")
		b.ReportMetric(s.MeanTransferMs, "squirrel-transfer-ms")
		b.ReportMetric(100*f.TransferWithin100ms(), "flower-within-100ms-%")
		b.ReportMetric(100*s.TransferWithin100ms(), "squirrel-within-100ms-%")
	}
}

// BenchmarkTable2Scalability regenerates Table 2: the population sweep
// with both protocols. It reports the largest-population improvement
// factors (the paper's headline scalability claim) plus the memory
// trajectory the big-cell path budgets against: live-heap bytes/node at
// the largest population and mean allocations per query over the whole
// sweep.
func BenchmarkTable2Scalability(b *testing.B) {
	cfg := benchConfig()
	cfg.Hours = 4
	cfg.MeasureMem = true
	pops := []int{150, 250, 350}
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		var before goruntime.MemStats
		goruntime.ReadMemStats(&before)
		rows, err := RunScalability(cfg, pops)
		if err != nil {
			b.Fatal(err)
		}
		var after goruntime.MemStats
		goruntime.ReadMemStats(&after)
		last := rows[len(rows)-1]
		if last.Flower.MeanLookupMs > 0 {
			b.ReportMetric(last.Squirrel.MeanLookupMs/last.Flower.MeanLookupMs, "lookup-factor")
		}
		if last.Flower.MeanTransferMs > 0 {
			b.ReportMetric(last.Squirrel.MeanTransferMs/last.Flower.MeanTransferMs, "transfer-factor")
		}
		b.ReportMetric(last.Flower.TailHitRatio, "flower-hit-largest-P")
		if last.Flower.MemStats != nil {
			b.ReportMetric(last.Flower.MemStats.BytesPerNode, "bytes/node")
		}
		var queries uint64
		for _, r := range rows {
			queries += r.Flower.Queries + r.Squirrel.Queries
		}
		if queries > 0 {
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(queries), "allocs/query")
		}
	}
}

// bigCellBudgetBytes is the per-node live-heap budget the big-cell
// scale path holds: a 100k-node cell must fit one process in ≤4 KiB of
// steady-state heap per node (≈400 MiB for the whole cell).
const bigCellBudgetBytes = 4096

// BenchmarkBigCell runs the big-cell scale path: one process hosting a
// P=100k flower cell on the sim backend over a short horizon, reporting
// live-heap bytes/node (forced-GC heap over population) and failing the
// benchmark if the footprint leaves the 4 KiB/node budget. Run it with
// `go test -run '^$' -bench BigCell .`. Excluded from race builds — the
// detector's shadow memory would both blow the budget it measures and
// dominate the run time.
func BenchmarkBigCell(b *testing.B) {
	if raceEnabled {
		b.Skip("100k-node cell skipped under the race detector")
	}
	cfg := benchConfig()
	cfg.Population = 100000
	cfg.Hours = 1
	cfg.MeasureMem = true
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.MemStats == nil {
			b.Fatal("MeasureMem set but no MemStats in result")
		}
		b.ReportMetric(res.MemStats.BytesPerNode, "bytes/node")
		b.ReportMetric(res.TailHitRatio, "hit")
		if res.MemStats.BytesPerNode > bigCellBudgetBytes {
			b.Errorf("big cell over budget: %.0f B/node live heap (budget %d)",
				res.MemStats.BytesPerNode, bigCellBudgetBytes)
		}
	}
}

// BenchmarkPetalUpFlashCrowd regenerates the extension experiment: the
// per-directory load bound under a flash crowd (Sec. 4's qualitative
// claim, measured).
func BenchmarkPetalUpFlashCrowd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		up := benchConfig()
		up.Protocol = PetalUp
		up.PetalUpLoadLimit = 10
		up.Seed = uint64(i + 1)
		upRes, err := Run(up)
		if err != nil {
			b.Fatal(err)
		}
		cl := benchConfig()
		cl.Seed = uint64(i + 1)
		clRes, err := Run(cl)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(upRes.TailHitRatio, "petalup-hit")
		b.ReportMetric(clRes.TailHitRatio, "classic-hit")
	}
}

// BenchmarkAblationGossipPeriod sweeps the gossip/keepalive period —
// the paper calibrates it at 1 hour; this quantifies what faster
// dissemination buys.
func BenchmarkAblationGossipPeriod(b *testing.B) {
	for _, minutes := range []int{15, 60, 120} {
		minutes := minutes
		b.Run(benchName("gossip", minutes, "min"), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.GossipEveryMinutes = minutes
				cfg.Seed = uint64(i + 1)
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.TailHitRatio, "hit")
				b.ReportMetric(res.MeanLookupMs, "lookup-ms")
			}
		})
	}
}

// BenchmarkAblationPushThreshold sweeps the push threshold (Table 1:
// 0.5): lower thresholds keep directory indexes fresher at the cost of
// more push traffic.
func BenchmarkAblationPushThreshold(b *testing.B) {
	for _, th := range []float64{0.25, 0.5, 0.9} {
		th := th
		b.Run(benchName("push", int(th*100), "pct"), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.PushThreshold = th
				cfg.Seed = uint64(i + 1)
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.TailHitRatio, "hit")
			}
		})
	}
}

// BenchmarkAblationCollaboration toggles same-website directory
// collaboration (Sec. 3.2) — the mechanism that widens a query's reach
// from one petal to the whole website.
func BenchmarkAblationCollaboration(b *testing.B) {
	for _, on := range []bool{true, false} {
		on := on
		name := "off"
		if on {
			name = "on"
		}
		b.Run("collab-"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.DirCollaboration = on
				cfg.Seed = uint64(i + 1)
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.TailHitRatio, "hit")
			}
		})
	}
}

// BenchmarkAblationSummaries contrasts Bloom summaries against exact
// key sets in petal gossip.
func BenchmarkAblationSummaries(b *testing.B) {
	for _, exact := range []bool{false, true} {
		exact := exact
		name := "bloom"
		if exact {
			name = "exact"
		}
		b.Run("summaries-"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.ExactSummaries = exact
				cfg.Seed = uint64(i + 1)
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.TailHitRatio, "hit")
			}
		})
	}
}

// BenchmarkAblationLocalities sweeps k, the number of landmark
// localities: more localities mean tighter petals but thinner caches.
func BenchmarkAblationLocalities(b *testing.B) {
	for _, k := range []int{2, 6, 10} {
		k := k
		b.Run(benchName("k", k, ""), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Localities = k
				cfg.Seed = uint64(i + 1)
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.TailHitRatio, "hit")
				b.ReportMetric(res.MeanTransferMs, "transfer-ms")
			}
		})
	}
}

// BenchmarkAblationMessageLoss injects random one-way message loss —
// the failure-injection knob beyond churn. The confirm-before-replace
// maintenance probe is what keeps the curve flat-ish.
func BenchmarkAblationMessageLoss(b *testing.B) {
	for _, loss := range []float64{0, 0.02, 0.05} {
		loss := loss
		b.Run(benchName("loss", int(loss*100), "pct"), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.MessageLossRate = loss
				cfg.Seed = uint64(i + 1)
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.TailHitRatio, "hit")
			}
		})
	}
}

// BenchmarkBaselineBracket runs the reference baselines the pluggable
// runtime added: origin-only (the floor), chord-global (directory
// caching without locality) and koorde-global (the same directory over
// de Bruijn routing). Their headline hit ratios — and the two overlays'
// mean lookup hop counts — are reported so the trajectory files track
// both the comparison's bracket and the routing-geometry gap.
func BenchmarkBaselineBracket(b *testing.B) {
	for i := 0; i < b.N; i++ {
		og := benchConfig()
		og.Protocol = OriginOnly
		og.Seed = uint64(i + 1)
		ogRes, err := Run(og)
		if err != nil {
			b.Fatal(err)
		}
		cg := benchConfig()
		cg.Protocol = ChordGlobal
		cg.Seed = uint64(i + 1)
		cgRes, err := Run(cg)
		if err != nil {
			b.Fatal(err)
		}
		kg := benchConfig()
		kg.Protocol = KoordeGlobal
		kg.Seed = uint64(i + 1)
		kgRes, err := Run(kg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ogRes.TailHitRatio, "origin-hit")
		b.ReportMetric(cgRes.TailHitRatio, "chord-global-hit")
		b.ReportMetric(cgRes.MeanTransferMs, "chord-global-transfer-ms")
		b.ReportMetric(kgRes.TailHitRatio, "koorde-global-hit")
		b.ReportMetric(cgRes.MeanHops, "chord-global-hops")
		b.ReportMetric(kgRes.MeanHops, "koorde-global-hops")
	}
}

// BenchmarkTraceOverhead runs the same cell with tracing off and on.
// The untraced leg is the zero-overhead contract's run-scale view (the
// nil-tracer fast path; its alloc-free guarantee is pinned exactly by
// internal/trace's AllocsPerRun test), the traced leg prices what
// -trace-csv/-trace actually costs, and the pair in the trajectory
// file keeps that price visible across PRs.
func BenchmarkTraceOverhead(b *testing.B) {
	for _, traced := range []bool{false, true} {
		traced := traced
		name := "untraced"
		if traced {
			name = "traced"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Trace = traced
				cfg.Seed = uint64(i + 1)
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if traced != (len(res.Traces) > 0) {
					b.Fatalf("traced=%v but %d trace records", traced, len(res.Traces))
				}
				b.ReportMetric(float64(len(res.Traces)), "trace-records")
				b.ReportMetric(res.TailHitRatio, "hit")
			}
		})
	}
}

func benchName(prefix string, v int, unit string) string {
	return fmt.Sprintf("%s-%d%s", prefix, v, unit)
}
