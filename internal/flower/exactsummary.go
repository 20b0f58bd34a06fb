package flower

import (
	"fmt"
	"math/bits"

	"flowercdn/internal/content"
	"flowercdn/internal/runtime"
)

// exactSetObjects bounds the objects an exact summary holds to
// 0 … 2^20−1, a bitmap of at most 128 KiB. NewSystem refuses a larger
// catalog, and the decoder a larger object.
const exactSetObjects = 1 << 20

// exactSetInline is how many bitmap words a set carries inline: 512
// objects, Table 1's 500 per site among them, in the set's one
// allocation.
const exactSetInline = 8

// exactSummary is one website's keys as a bitmap over ObjectID: bit
// o%64 of word o/64 is object o of the site. A site's keys are object
// indexes 0 … ObjectsPerSite−1, so the set is a few words. It is a
// directory's record of the keys a member pushed (memberInfo.keys), the
// summary a view seed hands out for that member (Sec. 4), and a peer's
// own summary under the exact-summaries ablation. SizeBytes charges 8 B
// per key, what a key list costs, so byte counters do not depend on the
// representation.
//
// The value is one pointer to the set's record: a member holds it in a
// word, and a ContactMeta boxes it without allocating. A set boxed in a
// ContactMeta is shared with everyone the box went to and is never
// written again (memberInfo.addKey copies it first). The zero value is
// the empty set of site 0, which only newExactSummary's sets grow. The
// type's name fixes its binary codec tag, which sorts by type name.
type exactSummary struct{ b *keyBits }

type keyBits struct {
	// wide is the whole bitmap once an object past the inline words
	// arrives, and inline is then zero; nil until then. It comes first,
	// so the collector scans one word of a set.
	wide   []uint64
	site   content.SiteID
	n      int32 // keys in the set
	inline [exactSetInline]uint64
}

func newExactSummary(site content.SiteID) exactSummary {
	return exactSummary{&keyBits{site: site}}
}

// words is the bitmap.
func (s exactSummary) words() []uint64 {
	switch {
	case s.b == nil:
		return nil
	case s.b.wide != nil:
		return s.b.wide
	}
	return s.b.inline[:]
}

// size is how many keys the set holds.
func (s exactSummary) size() int {
	if s.b == nil {
		return 0
	}
	return int(s.b.n)
}

// fits reports whether the set, one newExactSummary made, can hold k: a
// key of its site, with an object in range.
func (s exactSummary) fits(k content.Key) bool {
	return k.Site == s.b.site && k.Object >= 0 && k.Object < exactSetObjects
}

// has reports whether k is in the set.
func (s exactSummary) has(k content.Key) bool {
	if s.b == nil || k.Site != s.b.site || k.Object < 0 {
		return false
	}
	w, i := s.words(), int(k.Object>>6)
	return i < len(w) && w[i]&(1<<(k.Object&63)) != 0
}

// add puts k, which the set must fit, into it, and reports whether k
// is new.
func (s exactSummary) add(k content.Key) bool {
	b := s.b
	w, i := s.words(), int(k.Object>>6)
	if i >= len(w) {
		if b.wide == nil {
			b.wide = append(make([]uint64, 0, i+1), b.inline[:]...)
			clear(b.inline[:])
		}
		b.wide = append(b.wide, make([]uint64, i+1-len(b.wide))...)
		w = b.wide
	}
	bit := uint64(1) << (k.Object & 63)
	if w[i]&bit != 0 {
		return false
	}
	w[i] |= bit
	b.n++
	return true
}

// clone returns a copy the caller may write: one allocation while the
// bitmap is inline.
func (s exactSummary) clone() exactSummary {
	c := *s.b
	if c.wide != nil {
		c.wide = append([]uint64(nil), c.wide...)
	}
	return exactSummary{&c}
}

// all yields the keys in ascending order, which is content.Store's and
// the wire's order.
func (s exactSummary) all(yield func(content.Key) bool) {
	for i, w := range s.words() {
		for ; w != 0; w &= w - 1 {
			o := content.ObjectID(i<<6 | bits.TrailingZeros64(w))
			if !yield(content.Key{Site: s.b.site, Object: o}) {
				return
			}
		}
	}
}

// Contains implements SummaryProvider.
func (s exactSummary) Contains(key uint64) bool { return s.has(content.KeyFromUint64(key)) }

// SizeBytes implements SummaryProvider: 8 B per key.
func (s exactSummary) SizeBytes() int { return s.size() * 8 }

// AppendWire writes the keys as content.AppendKeysWire writes a sorted
// key list, walking the bitmap rather than sorting a copy.
func (s exactSummary) AppendWire(w *runtime.WireWriter) {
	w.Uvarint(uint64(s.size()))
	for k := range s.all {
		k.AppendWire(w)
	}
}

// DecodeWire reads a key list AppendWire wrote: one site's keys, in
// strictly ascending order, each object in 0 … exactSetObjects−1. An
// empty list is the zero value, whatever site the sender's set was of.
func (exactSummary) DecodeWire(r *runtime.WireReader) any {
	n := r.ArrayLen(2)
	if n == 0 {
		return exactSummary{}
	}
	s := newExactSummary(0)
	prev := content.ObjectID(-1)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := content.DecodeKeyWire(r)
		if i == 0 {
			s.b.site = k.Site
		}
		switch {
		case r.Err() != nil:
		case k.Site != s.b.site:
			r.Fail(fmt.Errorf("flower: summary keys span sites %d and %d", s.b.site, k.Site))
		case k.Object < 0:
			r.Fail(fmt.Errorf("flower: summary object %d is negative", k.Object))
		case k.Object >= exactSetObjects:
			r.Fail(fmt.Errorf("flower: summary object %d is past the %d a set holds", k.Object, exactSetObjects))
		case k.Object <= prev:
			r.Fail(fmt.Errorf("flower: summary keys out of order"))
		default:
			s.add(k)
			prev = k.Object
		}
	}
	return s
}

// GobEncode implements gob.GobEncoder: the site, which an empty set's
// wire form leaves out, then the wire form.
func (s exactSummary) GobEncode() ([]byte, error) {
	w := runtime.NewWireWriter(nil)
	var site content.SiteID
	if s.b != nil {
		site = s.b.site
	}
	appendSite(w, site)
	s.AppendWire(w)
	return w.Finish(), w.Err()
}

// GobDecode implements gob.GobDecoder.
func (s *exactSummary) GobDecode(b []byte) error {
	r := runtime.NewWireReader(b)
	site := decodeSite(r)
	d := s.DecodeWire(r).(exactSummary)
	switch {
	case r.Err() != nil:
		return r.Err()
	case r.Len() != 0:
		return fmt.Errorf("flower: %d trailing bytes after a key set", r.Len())
	case d.b != nil && d.b.site != site:
		return fmt.Errorf("flower: key set of site %d holds keys of site %d", site, d.b.site)
	case d.b == nil && site != 0:
		d = newExactSummary(site)
	}
	*s = d
	return nil
}
