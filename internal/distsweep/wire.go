package distsweep

import (
	"flowercdn/internal/runtime"
)

// The coordinator/worker protocol, in conversation order:
//
//	worker → Hello        (name + spec fingerprint)
//	coord  → Welcome      (job totals; or Shutdown on mismatch/finish)
//	worker → JobRequest   ─┐ repeated until Shutdown
//	coord  → JobAssign     │ (or Shutdown when the sweep is done)
//	worker → Progress*     │ periodic liveness while the run executes
//	worker → ResultMsg     │ (or JobFailed, which aborts the sweep)
//	                      ─┘
//	coord  → Shutdown     (all jobs done, or abort)
//
// Every type is registered with the runtime wire registry and carries
// a canonical binary marshaller, so the pair can speak either codec —
// the binary codec is the default, and wiretest pins the round trips.

// Hello opens a worker's session: its display name and the fingerprint
// of the spec it built from its own flags. A mismatched fingerprint is
// refused before any job is assigned.
type Hello struct {
	Worker  string
	SpecSum uint64
}

// Welcome answers a Hello: the job totals, so workers can log progress
// against the whole sweep.
type Welcome struct {
	Total int // jobs in the spec (cells × seeds)
	Done  int // already complete, resumed from the out-dir
}

// JobRequest asks for the next job; the worker runs one job at a time.
type JobRequest struct{}

// JobAssign hands a worker one (cell, seed) job under a lease epoch.
// Epochs increase on every (re)assignment of the same job; a result
// returning under an older epoch than the job's current one is a
// straggler's and is discarded.
type JobAssign struct {
	Cell  int
	Seed  int
	Epoch uint64
}

// Progress is the worker's periodic liveness signal while a run
// executes; it renews the job's lease deadline.
type Progress struct {
	Cell      int
	Seed      int
	Epoch     uint64
	ElapsedMs int64
}

// ResultMsg returns a completed job's record.
type ResultMsg struct {
	Cell  int
	Seed  int
	Epoch uint64
	Rec   *RunRecord
}

// JobFailed reports a run error. Run errors are deterministic
// configuration failures (the same config fails everywhere), so the
// coordinator aborts the sweep, mirroring sweep.Run.
type JobFailed struct {
	Cell  int
	Seed  int
	Epoch uint64
	Err   string
}

// Shutdown tells a worker to exit cleanly.
type Shutdown struct {
	Reason string
}

func init() {
	runtime.RegisterWireType(
		&Hello{}, &Welcome{}, &JobRequest{}, &JobAssign{},
		&Progress{}, &ResultMsg{}, &JobFailed{}, &Shutdown{},
	)
}

// AppendWire implements runtime.WireMessage.
func (m *Hello) AppendWire(w *runtime.WireWriter) {
	w.String(m.Worker)
	w.U64(m.SpecSum)
}

// DecodeWire implements runtime.WireMessage.
func (*Hello) DecodeWire(r *runtime.WireReader) any {
	return &Hello{Worker: r.String(), SpecSum: r.U64()}
}

// AppendWire implements runtime.WireMessage.
func (m *Welcome) AppendWire(w *runtime.WireWriter) {
	w.Int(m.Total)
	w.Int(m.Done)
}

// DecodeWire implements runtime.WireMessage.
func (*Welcome) DecodeWire(r *runtime.WireReader) any {
	return &Welcome{Total: r.Int(), Done: r.Int()}
}

// AppendWire implements runtime.WireMessage.
func (*JobRequest) AppendWire(*runtime.WireWriter) {}

// DecodeWire implements runtime.WireMessage.
func (*JobRequest) DecodeWire(*runtime.WireReader) any { return &JobRequest{} }

// AppendWire implements runtime.WireMessage.
func (m *JobAssign) AppendWire(w *runtime.WireWriter) {
	w.Int(m.Cell)
	w.Int(m.Seed)
	w.Uvarint(m.Epoch)
}

// DecodeWire implements runtime.WireMessage.
func (*JobAssign) DecodeWire(r *runtime.WireReader) any {
	return &JobAssign{Cell: r.Int(), Seed: r.Int(), Epoch: r.Uvarint()}
}

// AppendWire implements runtime.WireMessage.
func (m *Progress) AppendWire(w *runtime.WireWriter) {
	w.Int(m.Cell)
	w.Int(m.Seed)
	w.Uvarint(m.Epoch)
	w.Varint(m.ElapsedMs)
}

// DecodeWire implements runtime.WireMessage.
func (*Progress) DecodeWire(r *runtime.WireReader) any {
	return &Progress{Cell: r.Int(), Seed: r.Int(), Epoch: r.Uvarint(), ElapsedMs: r.Varint()}
}

// AppendWire implements runtime.WireMessage.
func (m *ResultMsg) AppendWire(w *runtime.WireWriter) {
	w.Int(m.Cell)
	w.Int(m.Seed)
	w.Uvarint(m.Epoch)
	w.Bool(m.Rec != nil)
	if m.Rec != nil {
		appendRecord(w, m.Rec)
	}
}

// DecodeWire implements runtime.WireMessage.
func (*ResultMsg) DecodeWire(r *runtime.WireReader) any {
	m := &ResultMsg{Cell: r.Int(), Seed: r.Int(), Epoch: r.Uvarint()}
	if r.Bool() {
		m.Rec = decodeRunRecord(r)
	}
	return m
}

// AppendWire implements runtime.WireMessage.
func (m *JobFailed) AppendWire(w *runtime.WireWriter) {
	w.Int(m.Cell)
	w.Int(m.Seed)
	w.Uvarint(m.Epoch)
	w.String(m.Err)
}

// DecodeWire implements runtime.WireMessage.
func (*JobFailed) DecodeWire(r *runtime.WireReader) any {
	return &JobFailed{Cell: r.Int(), Seed: r.Int(), Epoch: r.Uvarint(), Err: r.String()}
}

// AppendWire implements runtime.WireMessage.
func (m *Shutdown) AppendWire(w *runtime.WireWriter) {
	w.String(m.Reason)
}

// DecodeWire implements runtime.WireMessage.
func (*Shutdown) DecodeWire(r *runtime.WireReader) any {
	return &Shutdown{Reason: r.String()}
}
