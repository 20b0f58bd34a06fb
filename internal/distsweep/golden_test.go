package distsweep

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"reflect"
	"testing"

	"flowercdn/internal/runtime"
)

// Golden bytes of exemplarRecord, produced by the encoder as it stood
// before RunRecord became harness.Summary (PR 23, commit ab2ae29). The
// spec sum guards which sweep an out-dir belongs to, not how its records
// are laid out, so these are what keeps an old out-dir resumable and an
// old worker's results readable. They change only together with
// recordVersion.
const (
	goldenRecord = "06666c6f776572a00680d0bb1b0373696d3fe7666601a11bc23fe9eb851eb851ec4060880000000000404cc00000000000400a000000000000b960a846b817d902deadbeefcafef00d02003fd00000000000006440690000000000004054000000000000400800000000000080bab7033fe80000000000009601405e000000000000404e0000000000000000000000000000"
	// One record-file body: uvarint seed index 2, then the record.
	goldenBody = "02" + goldenRecord
	// ResultMsg{Cell: 3, Seed: 2, Epoch: 5, Rec: exemplar} under the binary
	// codec — cell, seed, epoch, record-present, record — minus its leading
	// one-byte type tag: tags number the wire types linked into the binary,
	// which the connection handshake's registry sum already covers.
	goldenResultMsg = "06040501" + goldenRecord
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGoldenRecordBody(t *testing.T) {
	golden := unhex(t, goldenBody)
	w := runtime.NewWireWriter(nil)
	w.Uvarint(2)
	appendRecord(w, exemplarRecord())
	if got := w.Finish(); !bytes.Equal(got, golden) {
		t.Fatalf("record body layout moved:\n got %x\nwant %x", got, golden)
	}
	r := runtime.NewWireReader(golden)
	seed, rec := r.Uvarint(), decodeRunRecord(r)
	if r.Err() != nil || r.Len() != 0 || seed != 2 || !reflect.DeepEqual(rec, exemplarRecord()) {
		t.Fatalf("golden body decodes to seed %d, %+v (err %v, %d bytes left)", seed, rec, r.Err(), r.Len())
	}
}

// A record file as the previous build wrote it — header, length prefix,
// golden body — loads as a completed job.
func TestGoldenRecordFileResumes(t *testing.T) {
	const sum, cell = 0xfeedface12345678, 4
	body := unhex(t, goldenBody)
	file := append([]byte("FCRC"), recordVersion)
	file = binary.BigEndian.AppendUint64(file, sum)
	file = binary.BigEndian.AppendUint32(file, cell)
	file = binary.BigEndian.AppendUint32(file, uint32(len(body)))
	file = append(file, body...)
	dir := t.TempDir()
	if err := os.WriteFile(cellPath(dir, cell), file, 0o644); err != nil {
		t.Fatal(err)
	}
	log, recs, err := openCellLog(dir, cell, sum)
	if err != nil {
		t.Fatal(err)
	}
	defer log.close()
	if len(recs) != 1 || !reflect.DeepEqual(recs[2], exemplarRecord()) {
		t.Fatalf("loaded %+v, want the exemplar under seed index 2", recs)
	}
	// Nothing was torn, so nothing was truncated.
	if got, err := os.ReadFile(cellPath(dir, cell)); err != nil || !bytes.Equal(got, file) {
		t.Fatalf("loading rewrote the file (err %v)", err)
	}
}

func TestGoldenResultMsgFrame(t *testing.T) {
	golden := unhex(t, goldenResultMsg)
	c, err := runtime.NewCodec("binary")
	if err != nil {
		t.Fatal(err)
	}
	msg := &ResultMsg{Cell: 3, Seed: 2, Epoch: 5, Rec: exemplarRecord()}
	enc, err := c.AppendMessage(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc[1:], golden) {
		t.Fatalf("ResultMsg layout moved:\n got %x\nwant %x", enc[1:], golden)
	}
	dec, err := c.DecodeMessage(append(enc[:1:1], golden...))
	if err != nil || !reflect.DeepEqual(dec, msg) {
		t.Fatalf("golden frame decodes to %+v (err %v)", dec, err)
	}
}
