package distsweep

import (
	"testing"

	"flowercdn/internal/metrics"
	"flowercdn/internal/wiretest"
)

// exemplarRecord is a record with every field set — the value the golden
// bytes in golden_test.go encode.
func exemplarRecord() *RunRecord {
	return &RunRecord{
		Protocol:       "flower",
		Population:     400,
		Duration:       28800000,
		Backend:        "sim",
		HitRatio:       0.7312498123,
		TailHitRatio:   0.81,
		MeanLookupMs:   132.25,
		MeanTransferMs: 57.5,
		MeanHops:       3.25,
		Queries:        12345,
		Hits:           9000,
		Misses:         3000,
		Unresolved:     345,
		Fingerprint:    0xdeadbeefcafef00d,
		Series: []metrics.SeriesPoint{
			{Start: 0, HitRatio: 0.25, Queries: 100, MeanLookupMs: 200, MeanTransferMs: 80, Evictions: 3},
			{Start: 3600000, HitRatio: 0.75, Queries: 150, MeanLookupMs: 120, MeanTransferMs: 60},
		},
	}
}

// Fully-populated exemplars through every codec: DeepEqual round
// trips, byte-identical binary re-encode (the canonical-encoding
// property the record files rely on).
func TestWireRoundTrips(t *testing.T) {
	rec := exemplarRecord()
	for _, msg := range []any{
		&Hello{Worker: "worker-7", SpecSum: 0x1234567890abcdef},
		&Welcome{Total: 40, Done: 13},
		&JobRequest{},
		&JobAssign{Cell: 3, Seed: 2, Epoch: 5},
		&Progress{Cell: 3, Seed: 2, Epoch: 5, ElapsedMs: 1234},
		&ResultMsg{Cell: 3, Seed: 2, Epoch: 5, Rec: rec},
		&ResultMsg{Cell: 0, Seed: 0, Epoch: 1}, // nil record
		&JobFailed{Cell: 1, Seed: 0, Epoch: 2, Err: "harness: population must be positive"},
		&Shutdown{Reason: "sweep complete"},
	} {
		wiretest.RoundTrip(t, msg)
	}
}
