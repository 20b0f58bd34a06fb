// Package distsweep shards a sweep's (cell, seed) jobs across OS
// processes — one coordinator, any number of workers — over the socket
// backend's stream framing (socknet.Stream), so sweep populations can
// grow past what one machine's cores cover.
//
// The seam is deliberately thin: a sweep's runs are independent and its
// results are keyed by (cell, seed) index, so distribution is pure job
// scheduling and aggregation is merge-only. The coordinator owns the
// job queue and a lease table (per-job deadline, progress-message
// liveness, at-most-once result acceptance: a job lost to a dead or
// silent worker is reassigned under a bumped lease epoch, and the
// straggler's late result is discarded by epoch). Workers pull one job
// at a time, run harness.Run locally, and stream the result back.
//
// Configurations never cross the wire — they contain function hooks
// and protocol option maps that have no canonical encoding. Instead,
// coordinator and workers each build the identical sweep.Spec from the
// same CLI flags, and the handshake compares SpecSum fingerprints (of
// the cells' forms) so a drifted worker fails fast with a named cause.
//
// Completed results append to per-cell record files under the
// coordinator's out-dir (one canonical-binary record per (cell, seed)),
// so a restarted coordinator resumes: records already on disk are
// loaded, their jobs never re-run. A record is the run's
// harness.Summary itself — the worker sends &res.Summary, nothing is
// projected or copied — and final aggregation reduces
// harness.Result{Summary: record} through sweep.Aggregate, the same
// function the in-process sweep uses, over the same job ordering, with
// float64s carried bit-exactly, so a distributed sweep's aggregates are
// bit-identical to an in-process run's at any worker count.
//
// Example (the flowerbench -dist-coordinator / -dist-worker surface):
//
//	coord, _ := distsweep.StartCoordinator(distsweep.CoordinatorConfig{
//	    Listen: "127.0.0.1:7100", Spec: spec, OutDir: "dist-out",
//	})
//	// on each worker machine, same spec from the same flags:
//	go distsweep.RunWorker(distsweep.WorkerConfig{
//	    Coordinator: "host:7100", Spec: spec,
//	})
//	res, err := coord.Wait() // *sweep.Result, bit-identical to sweep.Run
package distsweep

import (
	"fmt"
	"hash/fnv"

	"flowercdn/internal/sweep"
)

// jobKey identifies one (cell, seed) job by spec index.
type jobKey struct {
	cell, seed int
}

// SpecSum fingerprints a sweep spec: FNV-1a over the seed set and every
// cell's name and canonical form (Validate rejects what a form does not
// cover). Coordinator and workers must agree on it before any job is
// assigned. Config is not hashed, so adding or deleting a field keeps
// old out-dirs resumable.
func SpecSum(spec sweep.Spec) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "seeds:%v\n", spec.Seeds)
	for _, c := range spec.Cells {
		fmt.Fprintf(h, "cell %q: %s\n", c.Name, c.Form)
	}
	return h.Sum64()
}

// Validate checks that spec is distributable on top of being runnable:
// every cell must be a self-contained deterministic sim-backend run.
// Callback hooks cannot cross a process boundary, per-run traces and
// observability sinks would strand on the worker, and a socket-backend
// cell is itself a process group — all named errors here, instead of
// silent divergence between a local and a distributed sweep.
func Validate(spec sweep.Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	for _, c := range spec.Cells {
		cfg := c.Config
		if b := cfg.ResolvedBackend(); b != "sim" {
			return fmt.Errorf("distsweep: cell %q runs backend %q; distributed sweeps shard deterministic sim runs only", c.Name, b)
		}
		if cfg.OnWindow != nil || cfg.OnCheckpoint != nil {
			return fmt.Errorf("distsweep: cell %q has callback hooks, which cannot cross a process boundary", c.Name)
		}
		if cfg.Trace != nil {
			return fmt.Errorf("distsweep: cell %q enables tracing; trace records would strand on the worker", c.Name)
		}
		if cfg.Obs != nil {
			return fmt.Errorf("distsweep: cell %q attaches an obs server, which is per-process", c.Name)
		}
		if cfg.MeasureMem {
			return fmt.Errorf("distsweep: cell %q sets MeasureMem; heap samples are not carried in result records", c.Name)
		}
	}
	return nil
}
