package distsweep

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"flowercdn/internal/harness"
	"flowercdn/internal/runtime"
	"flowercdn/internal/socknet"
	"flowercdn/internal/sweep"
)

// DefaultLease is the per-job lease when CoordinatorConfig.Lease is
// unset: a worker silent (no progress message) this long forfeits its
// job to reassignment. Workers heartbeat every few seconds, so only a
// dead or wedged worker ever forfeits.
const DefaultLease = 2 * time.Minute

// CoordinatorConfig describes one coordinator.
type CoordinatorConfig struct {
	// Listen is the TCP address workers dial ("127.0.0.1:0" binds an
	// ephemeral port; read it back via Addr).
	Listen string
	// Spec is the sweep to shard. Workers must build the identical spec
	// (the handshake enforces SpecSum equality).
	Spec sweep.Spec
	// OutDir holds the resumable per-cell record files.
	OutDir string
	// Codec names the wire codec; empty is runtime.DefaultCodec, binary —
	// the messages all carry canonical marshallers and the result records
	// reuse the same encoding on disk.
	Codec string
	// Lease is the per-job deadline (DefaultLease when <= 0).
	Lease time.Duration
	// OnEvent, when set, receives one-line progress events
	// (connections, completions, reassignments). It may be called from
	// multiple goroutines and must not block.
	OnEvent func(string)
}

// lease is one outstanding job assignment.
type lease struct {
	epoch    uint64
	worker   string
	deadline time.Time
}

// Coordinator owns a distributed sweep: job queue, lease table, result
// files and final aggregation. Start it with StartCoordinator, collect
// with Wait, release resources with Close.
type Coordinator struct {
	cfg   CoordinatorConfig
	spec  sweep.Spec
	sum   uint64
	codec string
	lease time.Duration
	ln    net.Listener
	logs  []*cellLog

	mu       sync.Mutex
	cond     *sync.Cond
	pending  []jobKey
	epochs   map[jobKey]uint64
	leases   map[jobKey]*lease
	done     map[jobKey]*RunRecord
	conns    map[*socknet.Stream]struct{}
	workers  map[string]bool
	failure  error
	finished bool
	closed   bool

	finCh    chan struct{}
	stopScan chan struct{}
	wg       sync.WaitGroup
}

// StartCoordinator validates the spec, loads (or creates) the out-dir,
// queues every not-yet-completed job and starts serving workers. A
// fully-resumed sweep (every record already on disk) finishes
// immediately; late workers still get a clean Shutdown.
func StartCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if err := Validate(cfg.Spec); err != nil {
		return nil, err
	}
	if cfg.OutDir == "" {
		return nil, errors.New("distsweep: coordinator needs an out-dir for resumable result files")
	}
	if _, err := runtime.NewCodec(cfg.Codec); err != nil {
		return nil, fmt.Errorf("distsweep: %w", err)
	}
	leaseFor := cfg.Lease
	if leaseFor <= 0 {
		leaseFor = DefaultLease
	}
	sum := SpecSum(cfg.Spec)
	logs, done, err := openOutDir(cfg.OutDir, cfg.Spec, sum)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		for _, l := range logs {
			l.close()
		}
		return nil, fmt.Errorf("distsweep: listen %s: %w", cfg.Listen, err)
	}

	c := &Coordinator{
		cfg:      cfg,
		spec:     cfg.Spec,
		sum:      sum,
		codec:    cfg.Codec,
		lease:    leaseFor,
		ln:       ln,
		logs:     logs,
		epochs:   map[jobKey]uint64{},
		leases:   map[jobKey]*lease{},
		done:     done,
		conns:    map[*socknet.Stream]struct{}{},
		workers:  map[string]bool{},
		finCh:    make(chan struct{}),
		stopScan: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	// Queue in (cell, seed) order — the same job order the in-process
	// sweep hands to its pool.
	for cell := range c.spec.Cells {
		for seed := range c.spec.Seeds {
			k := jobKey{cell, seed}
			if _, ok := done[k]; !ok {
				c.pending = append(c.pending, k)
			}
		}
	}
	if n := len(done); n > 0 {
		c.event("resumed %d completed job(s) from %s", n, cfg.OutDir)
	}
	if len(c.pending) == 0 {
		c.mu.Lock()
		c.finishLocked(nil)
		c.mu.Unlock()
	}
	c.wg.Add(2)
	go c.acceptLoop()
	go c.scanLeases()
	return c, nil
}

// Addr is the bound listen address — the value workers dial (and what
// -spawn-workers passes to its children when Listen used port 0).
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Wait blocks until every job has a result (or the sweep aborts) and
// returns the aggregates — computed by sweep.Aggregate over the merged
// records, so they are bit-identical to an in-process sweep.Run of the
// same spec. Result.Workers counts the distinct workers that served.
func (c *Coordinator) Wait() (*sweep.Result, error) {
	<-c.finCh
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failure != nil {
		return nil, c.failure
	}
	ns := len(c.spec.Seeds)
	results := make([]*harness.Result, len(c.spec.Cells)*ns)
	for k, rec := range c.done {
		results[k.cell*ns+k.seed] = &harness.Result{Summary: *rec}
	}
	res := sweep.Aggregate(c.spec, results)
	res.Workers = len(c.workers)
	return res, nil
}

// Close releases everything: listener, worker connections, record
// files. Safe after Wait (the normal sequence) and also mid-sweep, in
// which case Wait returns an error. Idempotent.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	clean := c.finished && c.failure == nil
	c.finishLocked(errors.New("distsweep: coordinator closed"))
	c.mu.Unlock()

	// After a clean completion, give connected workers a moment to ask
	// for their next job and receive Shutdown — severing immediately
	// would turn every worker's orderly exit into an EOF error.
	if clean {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			c.mu.Lock()
			n := len(c.conns)
			c.mu.Unlock()
			if n == 0 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	c.mu.Lock()
	conns := make([]*socknet.Stream, 0, len(c.conns))
	for s := range c.conns {
		conns = append(conns, s)
	}
	c.mu.Unlock()

	close(c.stopScan)
	c.ln.Close()
	for _, s := range conns {
		s.Close()
	}
	c.wg.Wait()
	var firstErr error
	for _, l := range c.logs {
		if err := l.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// finishLocked ends the sweep exactly once; err == nil means complete.
// Callers hold c.mu.
func (c *Coordinator) finishLocked(err error) {
	if c.finished {
		return
	}
	c.finished = true
	c.failure = err
	c.cond.Broadcast()
	close(c.finCh)
}

func (c *Coordinator) event(format string, args ...any) {
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(fmt.Sprintf(format, args...))
	}
}

func (c *Coordinator) validKey(cell, seed int) bool {
	return cell >= 0 && cell < len(c.spec.Cells) && seed >= 0 && seed < len(c.spec.Seeds)
}

// acceptLoop admits workers until Close.
func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.serve(conn)
		}()
	}
}

// serve handles one worker connection for its lifetime.
func (c *Coordinator) serve(nc net.Conn) {
	s, err := socknet.AcceptStream(nc, c.codec)
	if err != nil {
		c.event("worker handshake failed: %v", err)
		return
	}
	defer s.Close()

	// Register before the first Recv so Close can sever a connection at
	// any stage — an unregistered blocked read would hang Close's drain.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.conns[s] = struct{}{}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.conns, s)
		c.mu.Unlock()
	}()

	msg, err := s.Recv()
	if err != nil {
		return
	}
	hello, ok := msg.(*Hello)
	if !ok {
		c.event("expected Hello, got %T; dropping connection", msg)
		return
	}
	if hello.SpecSum != c.sum {
		c.event("worker %s built a different spec (%#x vs %#x); refusing", hello.Worker, hello.SpecSum, c.sum)
		s.Send(&Shutdown{Reason: fmt.Sprintf( //nolint:errcheck // best-effort refusal
			"spec mismatch: worker %#x, coordinator %#x — run the worker with the coordinator's exact flags and binary", hello.SpecSum, c.sum)})
		return
	}

	c.mu.Lock()
	c.workers[hello.Worker] = true
	total := len(c.spec.Cells) * len(c.spec.Seeds)
	ndone := len(c.done)
	c.mu.Unlock()
	if err := s.Send(&Welcome{Total: total, Done: ndone}); err != nil {
		return
	}
	c.event("worker %s connected (%d/%d jobs done)", hello.Worker, ndone, total)

	// held tracks the leases this connection owns, so a lost worker's
	// jobs requeue immediately instead of waiting out the lease.
	held := map[jobKey]uint64{}
	defer c.releaseHeld(hello.Worker, held)

	for {
		msg, err := s.Recv()
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *JobRequest:
			assign, bye := c.nextJob(hello.Worker)
			if bye != nil {
				s.Send(bye) //nolint:errcheck // the worker may already be gone
				return
			}
			held[jobKey{assign.Cell, assign.Seed}] = assign.Epoch
			if err := s.Send(assign); err != nil {
				return
			}
			c.event("cell %d seed %d assigned to %s (epoch %d)", assign.Cell, assign.Seed, hello.Worker, assign.Epoch)
		case *Progress:
			if c.validKey(m.Cell, m.Seed) {
				c.renew(m)
			}
		case *ResultMsg:
			if !c.validKey(m.Cell, m.Seed) || m.Rec == nil {
				c.event("malformed result from worker %s; dropping connection", hello.Worker)
				return
			}
			delete(held, jobKey{m.Cell, m.Seed})
			c.accept(hello.Worker, m)
		case *JobFailed:
			if !c.validKey(m.Cell, m.Seed) {
				return
			}
			delete(held, jobKey{m.Cell, m.Seed})
			c.mu.Lock()
			c.finishLocked(fmt.Errorf("distsweep: cell %q seed %d: %s",
				c.spec.Cells[m.Cell].Name, c.spec.Seeds[m.Seed], m.Err))
			c.mu.Unlock()
		default:
			c.event("unexpected %T from worker %s; dropping connection", msg, hello.Worker)
			return
		}
	}
}

// releaseHeld requeues the jobs a departed connection still leased —
// unless a scanner or reassignment got there first (epoch moved on) or
// the job completed anyway.
func (c *Coordinator) releaseHeld(worker string, held map[jobKey]uint64) {
	c.mu.Lock()
	requeued := 0
	for k, e := range held {
		if _, ok := c.done[k]; ok {
			continue
		}
		if c.epochs[k] != e {
			continue
		}
		if _, leased := c.leases[k]; !leased {
			continue
		}
		delete(c.leases, k)
		c.pending = append(c.pending, k)
		requeued++
	}
	if requeued > 0 {
		c.cond.Broadcast()
	}
	c.mu.Unlock()
	if requeued > 0 {
		c.event("worker %s lost; requeued %d leased job(s)", worker, requeued)
	}
}

// nextJob blocks until a job is available (or the sweep ends). Exactly
// one of the returns is non-nil.
func (c *Coordinator) nextJob(worker string) (*JobAssign, *Shutdown) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.finished {
			reason := "sweep complete"
			if c.failure != nil {
				reason = c.failure.Error()
			}
			return nil, &Shutdown{Reason: reason}
		}
		if len(c.pending) > 0 {
			k := c.pending[0]
			c.pending = c.pending[1:]
			c.epochs[k]++
			e := c.epochs[k]
			c.leases[k] = &lease{epoch: e, worker: worker, deadline: time.Now().Add(c.lease)}
			return &JobAssign{Cell: k.cell, Seed: k.seed, Epoch: e}, nil
		}
		c.cond.Wait()
	}
}

// renew extends a live job's lease on a progress message.
func (c *Coordinator) renew(m *Progress) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := jobKey{m.Cell, m.Seed}
	if l, ok := c.leases[k]; ok && l.epoch == m.Epoch {
		l.deadline = time.Now().Add(c.lease)
	}
}

// accept applies one result: at most once per job, current epoch only.
// A duplicate or straggler result is discarded — its record is
// identical to the accepted one anyway (sim runs are deterministic),
// but at-most-once keeps the file and the done-count exact.
func (c *Coordinator) accept(worker string, m *ResultMsg) {
	k := jobKey{m.Cell, m.Seed}
	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		return
	}
	if _, dup := c.done[k]; dup {
		c.mu.Unlock()
		c.event("discarding duplicate result for cell %d seed %d from %s", k.cell, k.seed, worker)
		return
	}
	if cur := c.epochs[k]; cur != m.Epoch {
		c.mu.Unlock()
		c.event("discarding stale result for cell %d seed %d (epoch %d, current %d) from straggler %s",
			k.cell, k.seed, m.Epoch, cur, worker)
		return
	}
	// Persist before marking done: a record on disk is the durable
	// "never run this job again" bit a restarted coordinator trusts.
	if err := c.logs[k.cell].append(k.seed, m.Rec); err != nil {
		c.finishLocked(fmt.Errorf("distsweep: writing record for cell %d seed %d: %w", k.cell, k.seed, err))
		c.mu.Unlock()
		return
	}
	delete(c.leases, k)
	// An expired-but-not-reassigned job also sits in pending; the work
	// arrived after all, so drop it from the queue.
	for i, p := range c.pending {
		if p == k {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			break
		}
	}
	c.done[k] = m.Rec
	n, total := len(c.done), len(c.spec.Cells)*len(c.spec.Seeds)
	if n == total {
		c.finishLocked(nil)
	}
	c.mu.Unlock()
	c.event("cell %d seed %d done by %s (%d/%d)", k.cell, k.seed, worker, n, total)
}

// scanLeases reassigns jobs whose worker went silent past the lease.
func (c *Coordinator) scanLeases() {
	defer c.wg.Done()
	period := c.lease / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-c.stopScan:
			return
		case <-tick.C:
		}
		now := time.Now()
		c.mu.Lock()
		expired := 0
		for k, l := range c.leases {
			if now.After(l.deadline) {
				delete(c.leases, k)
				c.pending = append(c.pending, k)
				expired++
			}
		}
		if expired > 0 {
			c.cond.Broadcast()
		}
		c.mu.Unlock()
		if expired > 0 {
			c.event("%d lease(s) expired; job(s) requeued for reassignment", expired)
		}
	}
}
