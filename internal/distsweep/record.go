package distsweep

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"flowercdn/internal/harness"
	"flowercdn/internal/metrics"
	"flowercdn/internal/runtime"
	"flowercdn/internal/sweep"
)

// RunRecord is what crosses the wire and sits in the record files: the
// run's harness.Summary itself, not a projection of it — exactly the
// fields the sweep's aggregation and CSV/series renderers consume; per-run
// bulk (distributions, quantiles, traces, counter maps) stays behind on
// the worker. The encoder and decoder below are the one explicit field
// list, and their byte layout is the contract (golden_test.go pins it; the
// spec sum does not cover it): float64s travel as fixed 8-byte IEEE, never
// text, so a record written on another machine or by an earlier build
// reproduces the in-process sweep's output byte for byte. A new Summary
// field is appended and bumps recordVersion.
type RunRecord = harness.Summary

// appendRecord writes the record body — shared between ResultMsg (the
// wire) and the per-cell record files (disk), so both are the same
// canonical encoding.
func appendRecord(w *runtime.WireWriter, rec *RunRecord) {
	w.String(string(rec.Protocol))
	w.Int(rec.Population)
	w.Varint(rec.Duration)
	w.String(rec.Backend)
	w.F64(rec.HitRatio)
	w.F64(rec.TailHitRatio)
	w.F64(rec.MeanLookupMs)
	w.F64(rec.MeanTransferMs)
	w.F64(rec.MeanHops)
	w.Uvarint(rec.Queries)
	w.Uvarint(rec.Hits)
	w.Uvarint(rec.Misses)
	w.Uvarint(rec.Unresolved)
	w.U64(rec.Fingerprint)
	w.Uvarint(uint64(len(rec.Series)))
	for _, p := range rec.Series {
		w.Varint(p.Start)
		w.F64(p.HitRatio)
		w.Uvarint(p.Queries)
		w.F64(p.MeanLookupMs)
		w.F64(p.MeanTransferMs)
		w.F64(p.Evictions)
	}
}

func decodeRunRecord(r *runtime.WireReader) *RunRecord {
	rec := &RunRecord{
		Protocol:       harness.Protocol(r.String()),
		Population:     r.Int(),
		Duration:       r.Varint(),
		Backend:        r.String(),
		HitRatio:       r.F64(),
		TailHitRatio:   r.F64(),
		MeanLookupMs:   r.F64(),
		MeanTransferMs: r.F64(),
		MeanHops:       r.F64(),
		Queries:        r.Uvarint(),
		Hits:           r.Uvarint(),
		Misses:         r.Uvarint(),
		Unresolved:     r.Uvarint(),
		Fingerprint:    r.U64(),
	}
	if n := r.ArrayLen(8); n > 0 && r.Err() == nil {
		rec.Series = make([]metrics.SeriesPoint, n)
		for i := range rec.Series {
			rec.Series[i] = metrics.SeriesPoint{
				Start:          r.Varint(),
				HitRatio:       r.F64(),
				Queries:        r.Uvarint(),
				MeanLookupMs:   r.F64(),
				MeanTransferMs: r.F64(),
				Evictions:      r.F64(),
			}
		}
	}
	return rec
}

// Per-cell record files, the coordinator's resume state:
//
//	header = "FCRC" | version u8 | spec sum u64 BE | cell u32 BE
//	record = u32 BE body length | body
//	body   = uvarint seed index | RunRecord (canonical binary)
//
// Records are appended (and fsynced) one write each as jobs complete.
// A coordinator crash can tear the last record; the loader detects the
// torn tail and the opener truncates it away, so those jobs simply
// re-run. A header whose spec sum disagrees is a hard error — an
// out-dir can only ever be resumed with the spec that created it.

var recordMagic = [4]byte{'F', 'C', 'R', 'C'}

const (
	recordVersion    = 1
	recordHeaderSize = 4 + 1 + 8 + 4
	// maxRecordBytes bounds one record body; larger prefixes indicate a
	// corrupt file, not a real record.
	maxRecordBytes = 16 << 20
)

// cellLog is one cell's append-only record file.
type cellLog struct {
	f   *os.File
	buf []byte
}

func cellPath(dir string, cell int) string {
	return filepath.Join(dir, fmt.Sprintf("cell-%05d.rec", cell))
}

// openCellLog opens (creating if absent) cell c's record file under
// dir, validates its header against the spec fingerprint, loads every
// completed record, and truncates any crash-torn tail so the file is
// append-clean. It returns the open log and the loaded records keyed
// by seed index.
func openCellLog(dir string, cell int, sum uint64) (*cellLog, map[int]*RunRecord, error) {
	path := cellPath(dir, cell)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if info.Size() == 0 {
		var hdr [recordHeaderSize]byte
		copy(hdr[:4], recordMagic[:])
		hdr[4] = recordVersion
		binary.BigEndian.PutUint64(hdr[5:13], sum)
		binary.BigEndian.PutUint32(hdr[13:17], uint32(cell))
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return nil, nil, err
		}
		return &cellLog{f: f}, map[int]*RunRecord{}, nil
	}

	var hdr [recordHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("distsweep: %s: short header: %w", path, err)
	}
	if [4]byte(hdr[:4]) != recordMagic || hdr[4] != recordVersion {
		f.Close()
		return nil, nil, fmt.Errorf("distsweep: %s is not a v%d record file", path, recordVersion)
	}
	if got := binary.BigEndian.Uint64(hdr[5:13]); got != sum {
		f.Close()
		return nil, nil, fmt.Errorf("distsweep: %s belongs to a different spec (sum %#x, ours %#x) — point -out-dir elsewhere or remove it", path, got, sum)
	}
	if got := int(binary.BigEndian.Uint32(hdr[13:17])); got != cell {
		f.Close()
		return nil, nil, fmt.Errorf("distsweep: %s claims cell %d, expected %d", path, got, cell)
	}

	recs := map[int]*RunRecord{}
	good := int64(recordHeaderSize)
	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(f, lenBuf[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				break // torn length prefix: truncate below
			}
			f.Close()
			return nil, nil, err
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxRecordBytes {
			break // corrupt prefix: treat the rest as torn
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(f, body); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				break // torn body
			}
			f.Close()
			return nil, nil, err
		}
		r := runtime.NewWireReader(body)
		seed := int(r.Uvarint())
		rec := decodeRunRecord(r)
		if r.Err() != nil || r.Len() != 0 {
			break // torn or corrupt record: stop here, re-run the rest
		}
		recs[seed] = rec
		good += 4 + int64(n)
	}
	// Drop any torn tail so appended records start at a clean boundary.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &cellLog{f: f}, recs, nil
}

// append durably writes one completed record.
func (l *cellLog) append(seed int, rec *RunRecord) error {
	w := runtime.NewWireWriter(append(l.buf[:0], 0, 0, 0, 0))
	w.Uvarint(uint64(seed))
	appendRecord(w, rec)
	if err := w.Err(); err != nil {
		return err
	}
	buf := w.Finish()
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	l.buf = buf
	if _, err := l.f.Write(buf); err != nil {
		return err
	}
	return l.f.Sync()
}

func (l *cellLog) close() error { return l.f.Close() }

// openOutDir opens every cell's log under dir (creating the directory
// as needed), returning the logs (index-aligned with spec.Cells) and
// all previously completed jobs.
func openOutDir(dir string, spec sweep.Spec, sum uint64) ([]*cellLog, map[jobKey]*RunRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	logs := make([]*cellLog, len(spec.Cells))
	done := map[jobKey]*RunRecord{}
	for c := range spec.Cells {
		log, recs, err := openCellLog(dir, c, sum)
		if err != nil {
			for _, l := range logs {
				if l != nil {
					l.close()
				}
			}
			return nil, nil, err
		}
		logs[c] = log
		for seed, rec := range recs {
			if seed < len(spec.Seeds) {
				done[jobKey{c, seed}] = rec
			}
		}
	}
	return logs, done, nil
}
