package harness

import (
	"flowercdn/internal/metrics"
	"flowercdn/internal/runtime"
)

// This file implements the run fingerprint: an FNV-1a hash over the
// run's per-window query/transfer/message counts plus the final
// transport totals. On the sim backend the fingerprint is a pure
// function of the configuration, so running the same cell twice — in
// the same process or across processes — must produce the same value;
// any divergence points at nondeterminism (map iteration feeding the
// RNG or the event queue). CI runs the same cell in two separate
// processes and diffs the printed fingerprints (make fingerprint-check).

// windowObserver fires at every SeriesWindow close: it samples the
// transport's cumulative message counter (windowed message counts for
// the fingerprint) and surfaces the just-closed window's aggregates
// through cfg.OnWindow.
type windowObserver struct {
	msgSamples []uint64
	reported   int
}

func newWindowObserver(cfg Config, clock runtime.Clock, net runtime.Net, coll *metrics.Collector) *windowObserver {
	o := &windowObserver{}
	clock.Every(cfg.SeriesWindow, cfg.SeriesWindow, func() {
		o.msgSamples = append(o.msgSamples, net.Stats().MessagesSent)
		if cfg.OnWindow == nil {
			return
		}
		// Report every window closed so far but not yet surfaced. The
		// aggregator materializes a window only once a query touches it
		// or a later one, so a window silent at its close is synthesized
		// as an empty point — identical to what the series will later
		// say about it.
		series := coll.HitRatioSeries()
		closed := len(o.msgSamples)
		for o.reported < closed {
			if o.reported < len(series) {
				cfg.OnWindow(series[o.reported])
			} else {
				cfg.OnWindow(metrics.SeriesPoint{Start: int64(o.reported) * cfg.SeriesWindow})
			}
			o.reported++
		}
	})
	return o
}

// windowMessages converts the cumulative samples into per-window sent
// counts.
func (o *windowObserver) windowMessages() []uint64 {
	out := make([]uint64, len(o.msgSamples))
	var prev uint64
	for i, cum := range o.msgSamples {
		out[i] = cum - prev
		prev = cum
	}
	return out
}

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// fingerprint hashes the per-window aggregates, the per-window message
// counts and the final transport totals with FNV-1a.
func fingerprint(w *metrics.Windowed, windowMessages []uint64, net runtime.TransportStats) uint64 {
	h := fnvOffset64
	for i := 0; i < w.Len(); i++ {
		agg := w.At(i)
		h = fnvMix(h, uint64(i))
		h = fnvMix(h, agg.Total)
		h = fnvMix(h, agg.Hits)
		h = fnvMix(h, agg.Served)
		h = fnvMix(h, uint64(agg.LookupSum))
		h = fnvMix(h, uint64(agg.TransferSum))
	}
	for i, m := range windowMessages {
		h = fnvMix(h, uint64(i))
		h = fnvMix(h, m)
	}
	h = fnvMix(h, net.MessagesSent)
	h = fnvMix(h, net.MessagesDelivered)
	h = fnvMix(h, net.MessagesDropped)
	h = fnvMix(h, net.BytesSent)
	h = fnvMix(h, net.RequestsIssued)
	h = fnvMix(h, net.RequestsTimedOut)
	return h
}
