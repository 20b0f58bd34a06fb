package wallclock

import (
	"math"
	"math/bits"
)

// The wheel's geometry, internal/sim's: one byte of the deadline per
// level, so the 8 levels cover every non-negative int64.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelLevels = 64 / wheelBits
)

// slot is a FIFO of timers, linked both ways so that one leaves from
// anywhere in it at once.
type slot struct {
	head, tail *timer
}

// wheel is the clock's queue: internal/sim's hierarchical timing wheel
// over milliseconds, with back links. With base the wheel's position,
// level l slot i holds, in scheduling order, exactly the queued timers
// whose deadline agrees with base in every byte above l and has byte l
// equal to i. A slot above level 0 is refiled, front to back, into the
// empty levels below when base enters its span, so every slot is a FIFO
// and FIFO within one millisecond is the (when, seq) order. File, pop
// and remove are O(1) and compare no two timers; a timer's slot follows
// from its deadline and base, so remove needs no index. base never
// passes a queued deadline: the clock files nothing before the reading
// Run last acted on, and pops nothing beyond it.
type wheel struct {
	base int64
	n    int // queued timers
	// occupied has bit i of level l set while slots[l][i] is non-empty.
	occupied [wheelLevels][wheelSlots / 64]uint64
	slots    [wheelLevels][wheelSlots]slot
}

// slotOf returns the level and index t.when and base assign t to.
func (w *wheel) slotOf(t *timer) (int, uint) {
	l := (bits.Len64(uint64(t.when^w.base)|1) - 1) / wheelBits
	return l, uint(t.when>>(l*wheelBits)) % wheelSlots
}

// file appends t to its slot. t.when must not be before base.
func (w *wheel) file(t *timer) {
	l, i := w.slotOf(t)
	s := &w.slots[l][i]
	t.next, t.prev = nil, s.tail
	if s.tail == nil {
		s.head = t
		w.occupied[l][i/64] |= 1 << (i % 64)
	} else {
		s.tail.next = t
	}
	s.tail = t
}

// unlink takes t out of slot i of level l.
func (w *wheel) unlink(t *timer, l int, i uint) {
	s := &w.slots[l][i]
	if t.prev == nil {
		s.head = t.next
	} else {
		t.prev.next = t.next
	}
	if t.next == nil {
		s.tail = t.prev
	} else {
		t.next.prev = t.prev
	}
	t.next, t.prev = nil, nil
	if s.head == nil {
		w.occupied[l][i/64] &^= 1 << (i % 64)
	}
}

// push queues t.
func (w *wheel) push(t *timer) {
	w.n++
	w.file(t)
}

// remove takes the queued timer t out of the wheel.
func (w *wheel) remove(t *timer) {
	l, i := w.slotOf(t)
	w.unlink(t, l, i)
	w.n--
}

// firstOccupied returns the first non-empty slot of level l at or after
// index from.
func (w *wheel) firstOccupied(l int, from uint) (uint, bool) {
	if from >= wheelSlots {
		return 0, false
	}
	occ := &w.occupied[l]
	i := from / 64
	if b := occ[i] >> (from % 64); b != 0 {
		return from + uint(bits.TrailingZeros64(b)), true
	}
	for i++; i < uint(len(occ)); i++ {
		if occ[i] != 0 {
			return i*64 + uint(bits.TrailingZeros64(occ[i])), true
		}
	}
	return 0, false
}

// ahead returns the lowest level with a timer and the first occupied
// slot of it, with that slot's first millisecond: the deadline itself
// at level 0, a time no later than any deadline in the slot above it.
func (w *wheel) ahead() (l int, i uint, start int64, ok bool) {
	if w.n == 0 {
		return 0, 0, 0, false
	}
	for l = 0; l < wheelLevels; l++ {
		shift := uint(l * wheelBits)
		from := uint(w.base>>shift) % wheelSlots
		if l > 0 {
			from++ // base's own byte is a lower level's span
		}
		if i, ok = w.firstOccupied(l, from); ok {
			// base with byte l set to i and the bytes below cleared.
			start = int64(uint64(w.base)&(math.MaxUint64<<(shift+wheelBits))) | int64(i)<<shift
			return l, i, start, true
		}
	}
	panic("wallclock: queued timers but no occupied slot")
}

// next unlinks and returns the first timer in (when, seq) order if it
// is due at or before limit, refiling the slots base enters on the way
// there. base follows, but never beyond limit.
func (w *wheel) next(limit int64) *timer {
	for {
		l, i, start, ok := w.ahead()
		if !ok || start > limit {
			return nil
		}
		w.base = start
		s := &w.slots[l][i]
		if l == 0 {
			t := s.head
			w.unlink(t, 0, i)
			w.n--
			return t
		}
		// Refile the slot, in order, into the levels below, which are
		// empty.
		t := s.head
		*s = slot{}
		w.occupied[l][i/64] &^= 1 << (i % 64)
		for t != nil {
			after := t.next
			w.file(t)
			t = after
		}
	}
}
