package socknet

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"flowercdn/internal/runtime"
)

// fuzzSeedFrames is every frame kind the backend really sends, then a
// send of every registered wire message, so the fuzzers start from
// valid wire bytes — every message decoder's among them — and mutate
// outward.
func fuzzSeedFrames() []frame {
	frames := []frame{
		{Kind: frameJoin, ID: 12},
		{Kind: frameFail, ID: 7},
		{Kind: frameSend, From: 3, To: 9, Payload: benchPayload{Seq: 1, Keys: []uint64{2, 3}}},
		{Kind: frameRequest, From: 1, To: 2, ReqID: 99, Payload: benchPayload{Seq: 5}},
		{Kind: frameResponse, ReqID: 99, HasErr: true, Err: "boom"},
		{Kind: frameAnnounce, Payload: benchPayload{Seq: 8}},
	}
	for _, msg := range wireExemplars() {
		frames = append(frames, frame{Kind: frameSend, From: 1, To: 2, Payload: msg})
	}
	return frames
}

// wireExemplars is a reflect-filled exemplar of every registered wire
// type, as TestCodecEquivalence sends them.
func wireExemplars() []any {
	var out []any
	seed := 0
	for _, v := range runtime.WireTypes() {
		out = append(out, fillValue(reflect.TypeOf(v), &seed))
	}
	return out
}

// FuzzFrameRoundTrip throws arbitrary bytes at the gob-codec frame
// decoder: a frame off the wire is attacker-ish input (a corrupt peer,
// a truncated connection), so decodeFrameBody must fail cleanly —
// never panic — and anything it does accept must survive a
// re-encode/re-decode cycle with its header intact. (gob bytes are not
// canonical, so the assertion is header equality; the binary codec's
// stronger byte-identity property lives in FuzzBinaryFrameRoundTrip.)
func FuzzFrameRoundTrip(f *testing.F) {
	codec, err := runtime.NewCodec("gob")
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range fuzzSeedFrames() {
		b, err := appendFrame(nil, s, codec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := decodeFrameBody(data, codec)
		if err != nil {
			return // rejected cleanly — that is the contract
		}
		enc, err := appendFrame(nil, in, codec)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v (%+v)", err, in)
		}
		out, err := decodeFrameBody(enc, codec)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v (%+v)", err, in)
		}
		if out.Kind != in.Kind || out.ID != in.ID || !samePlace(out.Place, in.Place) ||
			out.From != in.From || out.To != in.To ||
			out.ReqID != in.ReqID || out.HasErr != in.HasErr || out.Err != in.Err {
			t.Fatalf("header changed across round trip: %+v vs %+v", out, in)
		}
	})
}

// samePlace compares placements by float bit pattern, so a fuzzed NaN
// coordinate (which survives the trip bit-exactly) still counts equal.
func samePlace(a, b runtime.Placement) bool {
	return math.Float64bits(a.Pos.X) == math.Float64bits(b.Pos.X) &&
		math.Float64bits(a.Pos.Y) == math.Float64bits(b.Pos.Y) &&
		a.Loc == b.Loc
}

// FuzzBinaryFrameRoundTrip is the binary codec's stronger property:
// arbitrary bytes never panic, and any accepted frame re-encodes to
// EXACTLY the input bytes — the encoding is canonical (minimal
// varints, sorted map keys, strict bools), so decode followed by
// encode is the identity on the accepted set.
func FuzzBinaryFrameRoundTrip(f *testing.F) {
	codec, err := runtime.NewCodec("binary")
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range fuzzSeedFrames() {
		b, err := appendFrame(nil, s, codec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := decodeFrameBody(data, codec)
		if err != nil {
			return
		}
		enc, err := appendFrame(nil, in, codec)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v (%+v)", err, in)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted frame is not canonical:\n in: %x\nout: %x", data, enc)
		}
	})
}

// FuzzBinaryDecode targets the codec layer beneath the frame envelope:
// DecodeMessage on arbitrary bytes must fail cleanly, and accepted
// messages must re-encode byte-identically.
func FuzzBinaryDecode(f *testing.F) {
	codec, err := runtime.NewCodec("binary")
	if err != nil {
		f.Fatal(err)
	}
	for _, msg := range append([]any{
		nil,
		benchPayload{Seq: 7, From: 3, Keys: []uint64{1, 2, 3}},
	}, wireExemplars()...) {
		b, err := codec.AppendMessage(nil, msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{0})
	f.Add([]byte{0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := codec.DecodeMessage(data)
		if err != nil {
			return
		}
		enc, err := codec.AppendMessage(nil, msg)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v (%#v)", err, msg)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted message is not canonical:\n in: %x\nout: %x", data, enc)
		}
	})
}

// FuzzFrameReadPrefix checks the batch envelope: any prefix/body
// combination must either yield a batch or an error, the reader must
// never consume past the batch it was told about, and the sub-frame
// walk must account every length prefix exactly.
func FuzzFrameReadPrefix(f *testing.F) {
	codec, err := runtime.NewCodec("binary")
	if err != nil {
		f.Fatal(err)
	}
	valid := make([]byte, batchHeader)
	fb, err := appendFrame(nil, frame{Kind: frameJoin, ID: 3}, codec)
	if err != nil {
		f.Fatal(err)
	}
	valid = appendSubFrame(valid, fb)
	finishBatch(valid)
	f.Add(valid, []byte("trailing"))
	f.Add([]byte{0, 0, 0, 1, 0}, []byte{})
	f.Fuzz(func(t *testing.T, data, trailer []byte) {
		r := bytes.NewReader(append(append([]byte{}, data...), trailer...))
		before := r.Len()
		var body []byte
		n, err := readBatch(r, &body)
		if err != nil {
			return
		}
		if consumed := before - r.Len(); consumed != n {
			t.Fatalf("readBatch reported %d bytes but consumed %d", n, consumed)
		}
		if n != len(body)+batchHeader {
			t.Fatalf("batch body %d bytes but %d consumed", len(body), n)
		}
		// The sub-frame walk either errors or accounts for every byte of
		// the body — forEachFrame only terminates cleanly at exactly zero
		// remaining bytes, so a clean walk IS the exactness property.
		if _, err := forEachFrame(body, codec, func(frame) {}); err != nil {
			return
		}
	})
}
