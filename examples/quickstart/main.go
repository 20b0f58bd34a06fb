// Quickstart: run one Flower-CDN simulation at laptop scale and print
// the paper's three metrics — hit ratio, lookup latency and transfer
// distance — plus the hourly hit-ratio series.
package main

import (
	"fmt"
	"log"

	"flowercdn"
)

func main() {
	// QuickConfig preserves the paper's Table 1 proportions at a scale
	// that finishes in a few seconds.
	cfg := flowercdn.QuickConfig()
	cfg.Seed = 42

	res, err := flowercdn.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Flower-CDN with P=%d peers under heavy churn:\n\n", res.Population)
	fmt.Printf("  hit ratio        %.3f (final hours: %.3f)\n", res.HitRatio, res.TailHitRatio)
	fmt.Printf("  lookup latency   %.0f ms mean, %.0f%% within 150 ms\n",
		res.MeanLookupMs, 100*res.LookupWithin150ms())
	fmt.Printf("  transfer distance %.0f ms mean, %.0f%% within 100 ms\n",
		res.MeanTransferMs, 100*res.TransferWithin100ms())
	fmt.Printf("  queries          %d (%d hits, %d misses)\n\n", res.Queries, res.Hits, res.Misses)

	fmt.Println("hour  hit-ratio")
	for hour, pt := range res.Series {
		bar := ""
		for i := 0; i < int(pt.HitRatio*40); i++ {
			bar += "#"
		}
		fmt.Printf("%4d  %.3f %s\n", hour+1, pt.HitRatio, bar)
	}
}
