package distsweep

import (
	"cmp"
	"fmt"
	"os"
	"sync"
	"time"

	"flowercdn/internal/harness"
	"flowercdn/internal/runtime"
	"flowercdn/internal/socknet"
	"flowercdn/internal/sweep"
)

// DefaultHeartbeat is the worker's progress period while a run
// executes — far inside DefaultLease, so a healthy worker never
// forfeits a long run.
const DefaultHeartbeat = 2 * time.Second

// DefaultDialTimeout is how long a worker keeps retrying the
// coordinator's address before giving up (the coordinator may still be
// loading its out-dir when the worker process starts).
const DefaultDialTimeout = 15 * time.Second

// WorkerConfig describes one worker process's session.
type WorkerConfig struct {
	// Coordinator is the coordinator's dial address.
	Coordinator string
	// Spec must be the identical sweep the coordinator shards — built
	// from the same flags by the same binary. The handshake compares
	// SpecSum fingerprints.
	Spec sweep.Spec
	// Name labels this worker in coordinator events; defaults to
	// "worker-<pid>".
	Name string
	// OnEvent, when set, receives one-line progress events. It must not
	// block.
	OnEvent func(string)

	heartbeat time.Duration // DefaultHeartbeat when zero; tests shorten it
}

// RunWorker connects to the coordinator, pulls (cell, seed) jobs one
// at a time, runs each with harness.Run, and streams the results back
// until the coordinator says Shutdown. It returns nil on a clean
// shutdown and an error when the session breaks (connection loss, run
// failure, spec mismatch).
func RunWorker(cfg WorkerConfig) error {
	if err := Validate(cfg.Spec); err != nil {
		return err
	}
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	event := func(format string, args ...any) {
		if cfg.OnEvent != nil {
			cfg.OnEvent(fmt.Sprintf(format, args...))
		}
	}

	s, err := dialRetry(cfg.Coordinator)
	if err != nil {
		return err
	}
	defer s.Close()

	if err := s.Send(&Hello{Worker: name, SpecSum: SpecSum(cfg.Spec)}); err != nil {
		return err
	}
	msg, err := s.Recv()
	if err != nil {
		return err
	}
	switch m := msg.(type) {
	case *Welcome:
		event("connected to %s: %d jobs, %d already done", cfg.Coordinator, m.Total, m.Done)
	case *Shutdown:
		return fmt.Errorf("distsweep: coordinator refused worker: %s", m.Reason)
	default:
		return fmt.Errorf("distsweep: expected Welcome, got %T", msg)
	}

	jobs := 0
	for {
		if err := s.Send(&JobRequest{}); err != nil {
			return err
		}
		msg, err := s.Recv()
		if err != nil {
			return err
		}
		switch m := msg.(type) {
		case *Shutdown:
			event("shutdown: %s (%d job(s) completed here)", m.Reason, jobs)
			return nil
		case *JobAssign:
			if m.Cell < 0 || m.Cell >= len(cfg.Spec.Cells) || m.Seed < 0 || m.Seed >= len(cfg.Spec.Seeds) {
				return fmt.Errorf("distsweep: assigned job (%d, %d) outside the spec", m.Cell, m.Seed)
			}
			event("running cell %q seed %d", cfg.Spec.Cells[m.Cell].Name, cfg.Spec.Seeds[m.Seed])
			rec, runErr := runJob(cfg, s, m)
			if runErr != nil {
				s.Send(&JobFailed{Cell: m.Cell, Seed: m.Seed, Epoch: m.Epoch, //nolint:errcheck // best-effort report before exiting
					Err: runErr.Error()})
				return runErr
			}
			if err := s.Send(&ResultMsg{Cell: m.Cell, Seed: m.Seed, Epoch: m.Epoch, Rec: rec}); err != nil {
				return err
			}
			jobs++
		default:
			return fmt.Errorf("distsweep: unexpected %T while awaiting a job", msg)
		}
	}
}

// runJob executes one assigned run, heartbeating progress alongside so
// the coordinator's lease stays fresh for as long as the run genuinely
// executes.
func runJob(cfg WorkerConfig, s *socknet.Stream, m *JobAssign) (*RunRecord, error) {
	hc := cfg.Spec.Cells[m.Cell].Config
	hc.Seed = cfg.Spec.Seeds[m.Seed]

	hb := cmp.Or(cfg.heartbeat, DefaultHeartbeat)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		tick := time.NewTicker(hb)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				// Best-effort: a send failure here means the connection
				// is gone, which the main loop discovers on its own.
				s.Send(&Progress{Cell: m.Cell, Seed: m.Seed, Epoch: m.Epoch, //nolint:errcheck
					ElapsedMs: time.Since(start).Milliseconds()})
			}
		}
	}()
	res, err := harness.Run(hc)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return &res.Summary, nil
}

// dialRetry keeps dialing until the coordinator answers or
// DefaultDialTimeout lapses. Each attempt, its handshake included, gets
// only the time left, so the loop ends within the timeout. Definitive
// handshake disagreements (wrong codec, mesh peer, registry mismatch)
// surface immediately — retrying cannot fix a build.
func dialRetry(addr string) (*socknet.Stream, error) {
	deadline := time.Now().Add(DefaultDialTimeout)
	for {
		// At least a millisecond: DialStream reads a timeout <= 0 as its
		// default.
		s, err := socknet.DialStream(addr, runtime.DefaultCodec, max(time.Until(deadline), time.Millisecond))
		if err == nil {
			return s, nil
		}
		if socknet.IsHandshakeError(err) || time.Until(deadline) <= 0 {
			return nil, err
		}
		time.Sleep(min(200*time.Millisecond, time.Until(deadline)))
	}
}
