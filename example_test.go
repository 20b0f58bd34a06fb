package flowercdn_test

import (
	"fmt"
	"log"
	"strings"

	"flowercdn"
)

// show prints a rendered table without the blanks that pad its last
// column: an example's expected output cannot end a line in blanks.
func show(table string) {
	for _, line := range strings.Split(strings.TrimSuffix(table, "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// Run one Flower-CDN simulation and print the paper's three metrics —
// hit ratio, lookup latency and transfer distance — plus the hourly
// hit-ratio series.
func ExampleRun() {
	// QuickConfig keeps the paper's Table 1 proportions at a scale that
	// runs in a blink; P and the horizon shrink it further.
	cfg := flowercdn.QuickConfig()
	cfg.Population = 200
	cfg.Hours = 3
	cfg.Seed = 42

	res, err := flowercdn.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hit ratio %.3f (final hour %.3f)\n", res.HitRatio, res.TailHitRatio)
	fmt.Printf("lookup %.0f ms mean, %.0f%% within 150 ms\n", res.MeanLookupMs, 100*res.LookupWithin150ms())
	fmt.Printf("transfer %.0f ms mean, %.0f%% within 100 ms\n", res.MeanTransferMs, 100*res.TransferWithin100ms())
	for hour, pt := range res.Series {
		fmt.Printf("hour %d  %.3f %s\n", hour+1, pt.HitRatio, strings.Repeat("#", int(pt.HitRatio*40)))
	}
	// Output:
	// hit ratio 0.228 (final hour 0.228)
	// lookup 1388 ms mean, 20% within 150 ms
	// transfer 192 ms mean, 29% within 100 ms
	// hour 1  0.110 ####
	// hour 2  0.194 #######
	// hour 3  0.351 ##############
}

// Compare Flower-CDN with Squirrel under churn harder than Table 1's —
// the paper's headline experiment (Fig. 3–5). Every peer fails, never
// leaving gracefully, after 45 minutes on average.
func ExampleRunComparison() {
	cfg := flowercdn.QuickConfig()
	cfg.Population = 200
	cfg.Hours = 4
	cfg.Seed = 7
	cfg.MeanUptimeMinutes = 45

	flower, squirrel, err := flowercdn.RunComparison(cfg)
	if err != nil {
		log.Fatal(err)
	}
	show(flowercdn.FormatFig3(flower, squirrel))
	fmt.Printf("lookup: Flower %.0f ms, Squirrel %.0f ms\n", flower.MeanLookupMs, squirrel.MeanLookupMs)
	fmt.Printf("transfer: Flower %.0f ms, Squirrel %.0f ms\n", flower.MeanTransferMs, squirrel.MeanTransferMs)
	// Output:
	// Figure 3: hit ratio over time (P=200)
	//   hour     Flower-CDN   Squirrel
	//   1        0.126        0.154
	//   2        0.216        0.174
	//   3        0.310        0.144
	//   4        0.329        0.156
	//   final: Flower 0.286 vs Squirrel 0.157 (improvement +82%)
	// lookup: Flower 1315 ms, Squirrel 2816 ms
	// transfer: Flower 144 ms, Squirrel 162 ms
}

// Sweep the population, reproducing Table 2: Flower-CDN gains from
// scale, since larger populations make denser petals.
func ExampleRunScalability() {
	cfg := flowercdn.QuickConfig()
	cfg.Hours = 2
	cfg.Seed = 3

	rows, err := flowercdn.RunScalability(cfg, []int{200, 300})
	if err != nil {
		log.Fatal(err)
	}
	show(flowercdn.FormatTable2(rows))
	// Output:
	// Table 2: Scalability in Flower-CDN and Squirrel
	//   P      approach     hit ratio  lookup       transfer
	//   200    Squirrel     0.14       2363 ms      170 ms
	//          Flower-CDN   0.08       1346 ms      160 ms
	//   300    Squirrel     0.14       2516 ms      177 ms
	//          Flower-CDN   0.15       1595 ms      166 ms
	//   improvement at P=300: lookup x1.6, transfer x1.1
}

// Run a protocol-comparison grid under several seeds and print mean ±
// 95% CI aggregates, the multi-seed version of a single run's numbers.
// The aggregates are the same for any worker count.
func ExampleSweep() {
	base := flowercdn.QuickConfig()
	base.Population = 200
	base.Hours = 2
	grid := flowercdn.Grid{
		Base:      base,
		Protocols: []flowercdn.Protocol{flowercdn.Flower, flowercdn.PetalUp, flowercdn.Squirrel},
	}

	// Two seeds per cell, fanned out over GOMAXPROCS workers (0).
	res, err := flowercdn.Sweep(grid.Cells(), flowercdn.SeedSet(1, 2), 0)
	if err != nil {
		log.Fatal(err)
	}
	show(res.Table())
	for _, c := range res.Cells {
		fmt.Printf("%-8s tail hit ratio %.3f, min %.3f, max %.3f\n",
			c.Name, c.TailHitRatio.Mean, c.TailHitRatio.Min, c.TailHitRatio.Max)
	}
	// Output:
	// Sweep: 3 cells x 2 seeds (6 runs)
	//   cell                         protocol      P       hit ratio        tail hit         lookup (ms)        transfer (ms)      hops
	//   flower                       flower        200     0.164 ±0.056     0.164 ±0.056     1327 ±569          159 ±106           3.93 ±0.02
	//   petalup                      petalup       200     0.164 ±0.056     0.164 ±0.056     1327 ±569          159 ±106           3.93 ±0.02
	//   squirrel                     squirrel      200     0.164 ±0.155     0.164 ±0.155     2411 ±720          170 ±194           4.36 ±0.27
	// flower   tail hit ratio 0.164, min 0.159, max 0.168
	// petalup  tail hit ratio 0.164, min 0.159, max 0.168
	// squirrel tail hit ratio 0.164, min 0.152, max 0.176
}
