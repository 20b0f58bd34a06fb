package flower

import (
	"encoding/binary"
	"encoding/hex"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flowercdn/internal/chord"
	"flowercdn/internal/content"
	"flowercdn/internal/ids"
	"flowercdn/internal/runtime"
)

// summaryOf builds the set of keys, which must share a site.
func summaryOf(keys ...content.Key) exactSummary {
	s := newExactSummary(0)
	if len(keys) > 0 {
		s.b.site = keys[0].Site
	}
	for _, k := range keys {
		s.add(k)
	}
	return s
}

// summaryOfMap builds site's set of the keys of a map model.
func summaryOfMap(site content.SiteID, m map[content.Key]struct{}) exactSummary {
	s := newExactSummary(site)
	for k := range m {
		s.add(k)
	}
	return s
}

// sameKeys reports whether the set holds exactly the model's keys, and
// yields them in ascending order.
func sameKeys(s exactSummary, model map[content.Key]struct{}) bool {
	var got []content.Key
	for k := range s.all {
		got = append(got, k)
	}
	want := slices.SortedFunc(maps.Keys(model), func(a, b content.Key) int {
		return int(a.Object) - int(b.Object)
	})
	return slices.Equal(got, want) && s.SizeBytes() == 8*len(model)
}

// FuzzKeySet drives a member's key set and a map model through the same
// steps: adds (through memberInfo.addKey, so a boxed set is copied and
// the box dropped), lookups, boxing the set as contactMeta does,
// ascending walks, the directory-index a handoff carries for a
// directory of this one member, and wire round trips. Objects span the first bitmap word, the inline words past it,
// Table 1's catalog edge at 499, and the spill past 512; a few keys are
// of another site or negative, which the set refuses.
func FuzzKeySet(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 63, 0, 0, 64, 0, 0, 0xf3, 1, 2, 0, 0, 0, 0xff, 1, 3, 0, 0, 4, 0, 0, 5, 0, 0})
	f.Add([]byte{0, 0xf3, 1, 2, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0x30, 3, 1, 0, 2, 3, 0, 0, 4, 0, 0})
	f.Add([]byte{0, 1, 0, 6, 0, 0, 0, 2, 0, 1, 0xe8, 3, 2, 0, 0, 0, 3, 0, 4, 0, 0, 5, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const site = 4
		m := memberInfo{nid: 9, keys: newExactSummary(site)}
		model := map[content.Key]struct{}{}
		var boxed exactSummary
		var boxedModel map[content.Key]struct{}
		for len(ops) >= 3 {
			op, obj := ops[0], content.ObjectID(binary.LittleEndian.Uint16(ops[1:3])%1100)
			ops = ops[3:]
			k := content.Key{Site: site, Object: obj}
			switch op % 7 {
			case 0:
				_, had := model[k]
				before := m.keys
				if !m.addKey(k) {
					t.Fatalf("addKey(%v) refused a key of the set's site", k)
				}
				model[k] = struct{}{}
				if boxed == before && !had && (m.keys == before || m.meta != nil) {
					t.Fatalf("addKey(%v) wrote a boxed set", k)
				}
			case 1:
				foreign := []content.Key{{Site: site + 1, Object: obj}, {Site: site, Object: -1 - obj}}[obj%2]
				if m.addKey(foreign) || m.keys.has(foreign) {
					t.Fatalf("the set took %v, not a key of its site", foreign)
				}
			case 2:
				_, want := model[k]
				if m.keys.has(k) != want || m.keys.Contains(k.Uint64()) != want {
					t.Fatalf("has(%v) = %v, model says %v", k, !want, want)
				}
			case 3:
				m.meta = ContactMeta{Summary: m.keys}
				boxed, boxedModel = m.keys, maps.Clone(model)
			case 4:
				d := directoryState{members: []memberInfo{m}}
				index := d.handoffIndex()
				if len(index) != len(model) {
					t.Fatalf("handoff index holds %d keys, model %d", len(index), len(model))
				}
				for k := range model {
					if hs := index[k]; len(hs) != 1 || hs[0] != m.nid {
						t.Fatalf("handoff index has %v held by %v, want [%d]", k, hs, m.nid)
					}
				}
			case 5:
				w := runtime.NewWireWriter(nil)
				m.keys.AppendWire(w)
				ref := runtime.NewWireWriter(nil)
				var sorted []content.Key
				for k := range m.keys.all {
					sorted = append(sorted, k)
				}
				content.AppendKeysWire(ref, sorted)
				if string(w.Finish()) != string(ref.Finish()) {
					t.Fatalf("set encodes to %x, its sorted key list to %x", w.Finish(), ref.Finish())
				}
				r := runtime.NewWireReader(w.Finish())
				back := exactSummary{}.DecodeWire(r).(exactSummary)
				if r.Err() != nil || r.Len() != 0 || !sameKeys(back, model) {
					t.Fatalf("wire round trip: err %v, %d bytes left, keys match %v", r.Err(), r.Len(), sameKeys(back, model))
				}
			default:
				c := m.keys.clone()
				if !reflect.DeepEqual(c, m.keys) {
					t.Fatal("a clone differs from its set")
				}
			}
			if !sameKeys(m.keys, model) {
				t.Fatalf("set and model differ after op %d on %v", op%7, k)
			}
			if boxed.b != nil && !sameKeys(boxed, boxedModel) {
				t.Fatal("a boxed set changed after it was boxed")
			}
		}
	})
}

// TestContactMetaWireIsUnchanged pins a ContactMeta carrying an exact
// summary to the bytes the map-backed summary it replaced encoded to,
// keys across three bitmap words and at Table 1's catalog edge, and an
// empty one; both decode back to the same keys.
func TestContactMetaWireIsUnchanged(t *testing.T) {
	var keys []content.Key
	for _, o := range []content.ObjectID{0, 1, 63, 64, 130, 499} {
		keys = append(keys, content.Key{Site: 7, Object: o})
	}
	c, err := runtime.NewCodec("binary")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		meta ContactMeta
		want string
	}{
		{ContactMeta{Summary: summaryOf(keys...), Dir: DirInfo{Pos: ids.ID(0x0123456789abcdef), Node: 42, Age: 3}},
			"0e14060e000e020e7e0e80010e84020ee6070123456789abcdef5406"},
		{ContactMeta{Summary: exactSummary{}, Dir: DirInfo{Pos: ids.ID(5), Node: 1}},
			"0e140000000000000000050200"},
	} {
		b, err := c.AppendMessage(nil, tc.meta)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != tc.want {
			t.Errorf("ContactMeta encodes to\n%s\nwant\n%s", got, tc.want)
		}
		back, err := c.DecodeMessage(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, tc.meta) {
			t.Errorf("decoded %#v, want %#v", back, tc.meta)
		}
	}
}

// TestKeySetDecodeRejects feeds the decoder key lists no set encodes:
// keys out of order, keys of two sites, a negative object, and an
// object past what a set holds — and the directory reply's decoder a
// provider list longer than a reply holds, which it must refuse, not
// cut.
func TestKeySetDecodeRejects(t *testing.T) {
	for _, tc := range []struct {
		keys []content.Key
		want string
	}{
		{[]content.Key{{Site: 1, Object: 5}, {Site: 1, Object: 5}}, "out of order"},
		{[]content.Key{{Site: 1, Object: 9}, {Site: 1, Object: 5}}, "out of order"},
		{[]content.Key{{Site: 1, Object: 5}, {Site: 2, Object: 6}}, "span sites 1 and 2"},
		{[]content.Key{{Site: 1, Object: -1}}, "negative"},
		{[]content.Key{{Site: 1, Object: 3}, {Site: 1, Object: exactSetObjects}}, "past the"},
	} {
		w := runtime.NewWireWriter(nil)
		content.AppendKeysWire(w, tc.keys)
		r := runtime.NewWireReader(w.Finish())
		exactSummary{}.DecodeWire(r)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("decoding %v: error %v, want one saying %q", tc.keys, err, tc.want)
		}
	}
	w := runtime.NewWireWriter(nil)
	w.Nodes([]runtime.NodeID{3, 9, 4, 8})
	w.Bool(false)
	chord.AppendEntriesWire(w, nil)
	r := runtime.NewWireReader(w.Finish())
	if got := (dirQueryReply{}).DecodeWire(r).(dirQueryReply); r.Err() == nil || !strings.Contains(r.Err().Error(), "more than 3") || got.a != nil {
		t.Errorf("decoding a reply of 4 providers: %v and error %v, want none and one saying %q", got.Providers(), r.Err(), "more than 3")
	}
}
