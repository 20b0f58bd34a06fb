package flowercdn

import "flowercdn/internal/distsweep"

// DistSweepOptions configures the coordinator side of a distributed
// sweep (DistSweepCoordinator).
type DistSweepOptions struct {
	// Listen is the TCP address workers dial; ":0" or "127.0.0.1:0"
	// binds an ephemeral port, reported through OnListen.
	Listen string
	// OutDir holds the per-cell result record files that make the sweep
	// resumable: a restarted coordinator pointed at the same directory
	// skips every already-completed (cell, seed) job. Required.
	OutDir string
	// OnListen, when set, receives the bound listen address before the
	// coordinator blocks — the hook process spawners use to hand workers
	// the actual port behind ":0". An error from it closes the
	// coordinator, and DistSweepCoordinator returns it.
	OnListen func(addr string) error
	// OnEvent, when set, receives one-line progress events (worker
	// connects, job completions, lease reassignments). It may be called
	// from multiple goroutines and must not block.
	OnEvent func(string)
}

// DistSweepWorkerOptions configures one worker process
// (DistSweepWorker).
type DistSweepWorkerOptions struct {
	// Coordinator is the coordinator's dial address.
	Coordinator string
	// Name labels the worker in coordinator events ("worker-<pid>" by
	// default).
	Name string
	// OnEvent, when set, receives one-line progress events.
	OnEvent func(string)
}

// DistSweepCoordinator runs the coordinator side of a distributed
// sweep: it shards the (cell, seed) jobs of the given grid over however
// many DistSweepWorker processes connect, persists completed results
// under OutDir, and aggregates exactly as Sweep does — the returned
// aggregates are bit-identical to an in-process Sweep of the same cells
// and seeds, at any worker count, including across worker loss and
// coordinator restarts.
//
// Workers must be handed the identical cells and seeds (in practice:
// the same CLI flags on the same binary); the connection handshake
// verifies a spec fingerprint and refuses drifted workers.
func DistSweepCoordinator(cells []SweepCell, seeds []uint64, opts DistSweepOptions) (*SweepResult, error) {
	spec, err := lowerSpec(cells, seeds, 0)
	if err != nil {
		return nil, err
	}
	coord, err := distsweep.StartCoordinator(distsweep.CoordinatorConfig{
		Listen:  opts.Listen,
		Spec:    spec,
		OutDir:  opts.OutDir,
		OnEvent: opts.OnEvent,
	})
	if err != nil {
		return nil, err
	}
	if opts.OnListen != nil {
		if err := opts.OnListen(coord.Addr()); err != nil {
			coord.Close()
			return nil, err
		}
	}
	res, err := coord.Wait()
	if cerr := coord.Close(); err == nil && cerr != nil {
		return nil, cerr
	}
	return res, err
}

// DistSweepWorker runs one worker process against a coordinator: it
// pulls (cell, seed) jobs, simulates each locally, and streams results
// back until the coordinator reports the sweep complete. The cells and
// seeds must be the ones the coordinator was started with.
func DistSweepWorker(cells []SweepCell, seeds []uint64, opts DistSweepWorkerOptions) error {
	spec, err := lowerSpec(cells, seeds, 0)
	if err != nil {
		return err
	}
	return distsweep.RunWorker(distsweep.WorkerConfig{
		Coordinator: opts.Coordinator,
		Spec:        spec,
		Name:        opts.Name,
		OnEvent:     opts.OnEvent,
	})
}
