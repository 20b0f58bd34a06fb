package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Timer is a handle for a scheduled event, and the record its wheel
// files. It can be cancelled before it fires; cancelling an
// already-fired or already-cancelled timer is a no-op. The zero value
// is not a valid timer.
type Timer struct {
	// key is the timer's filing sequence number shifted above its state
	// bits (timerFired, timerCancelled, timerReleased): one word, first
	// so that it is 64-bit aligned for the atomics everywhere. 61 bits
	// of sequence never wrap within a run.
	key        uint64
	when       int64
	next, prev *Timer // neighbours in the wheel slot; next also links the free records
	fn         func() // nil once the timer has left the wheel
	w          *Wheel
}

// A timer's state bits, below its sequence number in key. Fired and
// cancelled are set as the timer leaves the wheel, at most one of
// them; released is set by Release. On a guarded wheel every access to
// key is atomic, so Release takes no lock.
const (
	timerFired = 1 << iota
	timerCancelled
	timerReleased
	stateBits = iota
)

// Cancel takes the timer out of its wheel at once, so that its function
// never runs. It reports whether it had any effect, i.e. the timer had
// neither fired nor been cancelled already.
func (t *Timer) Cancel() bool {
	if t == nil {
		return false
	}
	w := t.w
	w.lock()
	ok := t.fn != nil
	if ok {
		l, i := w.slotOf(t)
		w.unlink(t, l, i)
		t.fn = nil
		w.leave(t, timerCancelled)
	}
	w.unlock()
	return ok
}

// Release gives the handle up: the caller will not use it again. The
// timer still fires unless it was cancelled. Whichever of Release and
// the timer's leaving the wheel comes second recycles the record for a
// later At: a filed timer is only marked here; one that has already
// fired or been cancelled is taken back at once — on a guarded wheel
// onto a stack that At drains, without the lock. A second Release, or
// Release of a nil timer, is a no-op.
func (t *Timer) Release() {
	if t == nil {
		return
	}
	w := t.w
	if old := w.or(t, timerReleased); old&timerReleased != 0 || old&(timerFired|timerCancelled) == 0 {
		return
	}
	if w.mu == nil {
		w.free, t.next = t, w.free
		return
	}
	for {
		top := w.released.Load()
		t.next = top
		if w.released.CompareAndSwap(top, t) {
			return
		}
	}
}

// The wheel's geometry: one byte of the firing time per level, so the
// 8 levels cover every non-negative int64 and no timer is ever too far
// ahead to file.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelLevels = 64 / wheelBits
)

// slot holds timers in increasing sequence number, which is filing
// order but for a late filing (AtReserved), linked both ways so that
// one leaves from anywhere in it at once.
type slot struct {
	head, tail *Timer
}

// Wheel is the hierarchical timing wheel described in the package
// comment, and the free records of its owner — an Engine, or the wall
// clock, which guards it (Guard). A timer's slot follows from its firing
// time and base, so Cancel unlinks it with no index. base never passes a
// filed timer: it moves only to the start of the first occupied slot,
// never beyond the limit of a Pop, and nothing is filed before the floor
// the owner passed last.
type Wheel struct {
	base int64
	n    int         // timers filed
	seq  uint64      // the sequence number the next At or Reserve takes
	mu   *sync.Mutex // the owner's lock, if guarded

	// free lists, through Timer.next, the released records that have
	// left the wheel: At takes from here first. Last in, first out, so
	// the record a delivery just vacated carries the reply. released is
	// a guarded wheel's stack of the records Release gave back without
	// the lock; At moves it to free when free runs dry.
	free     *Timer
	released atomic.Pointer[Timer]

	// slab is the current chunk of bulk-allocated records, handed out
	// one by one when free is empty. A record whose handle the caller
	// kept is never recycled; its chunk is garbage-collected once every
	// handle into it is gone.
	slab []Timer

	// occupied has bit i of level l set while slots[l][i] is non-empty.
	occupied [wheelLevels][wheelSlots / 64]uint64
	slots    [wheelLevels][wheelSlots]slot
}

// timerSlabSize is the bulk-allocation chunk for records.
const timerSlabSize = 512

// Guard makes mu the wheel's lock, for an owner that schedules from
// several goroutines: the owner holds mu around At, Reserve,
// AtReserved, Pop, Ahead, Len and Check, Cancel takes it, and Release
// takes no lock.
func (w *Wheel) Guard(mu *sync.Mutex) { w.mu = mu }

func (w *Wheel) lock() {
	if w.mu != nil {
		w.mu.Lock()
	}
}

func (w *Wheel) unlock() {
	if w.mu != nil {
		w.mu.Unlock()
	}
}

// or sets bit in t's key and returns the key before. On a guarded
// wheel it is a compare-and-swap loop: go1.24.0 on amd64 compiles an
// atomic Or whose result is used into code that clobbers a live
// register (here, w).
func (w *Wheel) or(t *Timer, bit uint64) uint64 {
	for w.mu != nil {
		if old := atomic.LoadUint64(&t.key); atomic.CompareAndSwapUint64(&t.key, old, old|bit) {
			return old
		}
	}
	old := t.key
	t.key = old | bit
	return old
}

// seqOf returns t's filing sequence number; atomically on a guarded
// wheel, where Release may set a state bit beside it at any moment.
func (w *Wheel) seqOf(t *Timer) uint64 {
	if w.mu != nil {
		return atomic.LoadUint64(&t.key) >> stateBits
	}
	return t.key >> stateBits
}

// leave marks t, just out of the wheel, fired or cancelled, and takes
// it back if its handle has been released.
func (w *Wheel) leave(t *Timer, bit uint64) {
	if w.or(t, bit)&timerReleased != 0 {
		w.free, t.next = t, w.free
	}
}

// Len returns the number of timers filed: cancelled ones are not.
func (w *Wheel) Len() int { return w.n }

// At files a new timer to run fn at time when, or at floor if that is
// later, under the next sequence number. floor is the owner's present:
// no timer it files is due before the floor it passed last.
func (w *Wheel) At(when, floor int64, fn func()) *Timer {
	t := w.record()
	w.arm(t, when, floor, fn)
	return t
}

// Reserve hands out the next sequence number and files nothing: the
// place, among the timers of one instant, of a timer that AtReserved
// may file later.
func (w *Wheel) Reserve() uint64 {
	seq := w.seq
	w.seq++
	return seq
}

// AtReserved files a new timer to run fn at time when, or at floor if
// that is later, under seq, a number Reserve handed out that no timer
// has taken yet. It fires where it would have fired had At filed it
// when seq was reserved: before every timer of its instant filed since.
func (w *Wheel) AtReserved(when, floor int64, seq uint64, fn func()) *Timer {
	if seq >= w.seq {
		panic(fmt.Sprintf("sim: sequence number %d was never reserved", seq))
	}
	t := w.record()
	w.ready(t, when, floor, seq, fn)
	w.fileReserved(t)
	return t
}

// record returns a record of w's to file: a released one, else the
// slab's next.
func (w *Wheel) record() *Timer {
	t := w.free
	if t == nil && w.released.Load() != nil {
		t = w.released.Swap(nil)
	}
	if t != nil {
		w.free = t.next
		return t
	}
	if len(w.slab) == 0 {
		w.slab = make([]Timer, timerSlabSize)
	}
	t = &w.slab[0]
	w.slab = w.slab[1:]
	t.w = w
	return t
}

// arm files t, a record of w's that is not in the wheel, as At does.
func (w *Wheel) arm(t *Timer, when, floor int64, fn func()) {
	w.ready(t, when, floor, w.seq, fn)
	w.seq++
	w.file(t)
}

// ready counts t, about to be filed, and sets its firing time, function
// and sequence number, its state bits clear.
func (w *Wheel) ready(t *Timer, when, floor int64, seq uint64, fn func()) {
	if w.n == 0 {
		w.base = floor // an empty wheel may start anywhere not ahead of a timer
	}
	t.when, t.fn, t.key = max(when, floor), fn, seq<<stateBits
	w.n++
}

// slotOf returns the level and index t.when and base assign t to.
func (w *Wheel) slotOf(t *Timer) (int, uint) {
	l := (bits.Len64(uint64(t.when^w.base)|1) - 1) / wheelBits
	return l, uint(t.when>>(l*wheelBits)) % wheelSlots
}

// fileReserved files t, whose sequence number may be older than some
// filed already, in its slot behind the last timer with a smaller one:
// it walks back from the tail past the newer ones. t.when must not be
// before base.
func (w *Wheel) fileReserved(t *Timer) {
	l, i := w.slotOf(t)
	s := &w.slots[l][i]
	seq := t.key >> stateBits
	var after *Timer // the oldest of the newer timers
	for u := s.tail; u != nil && w.seqOf(u) > seq; u = u.prev {
		after = u
	}
	if after == nil {
		w.file(t)
		return
	}
	t.next, t.prev = after, after.prev
	if after.prev == nil {
		s.head = t
	} else {
		after.prev.next = t
	}
	after.prev = t
}

// file appends t to its slot, behind every timer filed there: t holds
// the newest sequence number, or the slot is being refiled front to
// back. t.when must not be before base.
func (w *Wheel) file(t *Timer) {
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
func (w *Wheel) unlink(t *Timer, l int, i uint) {
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
	w.n--
}

// firstOccupied returns the first non-empty slot of level l at or after
// index from.
func (w *Wheel) firstOccupied(l int, from uint) (uint, bool) {
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

// above returns the first occupied slot above level 0, at the lowest
// level that has one, with that slot's first millisecond.
func (w *Wheel) above() (l int, i uint, start int64) {
	for l = 1; l < wheelLevels; l++ {
		shift := uint(l * wheelBits)
		if i, ok := w.firstOccupied(l, uint(w.base>>shift)%wheelSlots+1); ok {
			// base with byte l set to i and the bytes below cleared.
			return l, i, int64(uint64(w.base)&(math.MaxUint64<<(shift+wheelBits))) | int64(i)<<shift
		}
	}
	panic("sim: filed timers but no occupied slot")
}

// Ahead returns the first millisecond of the first occupied slot: the
// first timer's firing time when that slot is at level 0, else a time
// no later than any in the slot, which Pop refiles when base gets
// there. ok is false when the wheel is empty.
func (w *Wheel) Ahead() (start int64, ok bool) {
	if w.n == 0 {
		return 0, false
	}
	if i, ok := w.firstOccupied(0, uint(w.base)%wheelSlots); ok {
		return w.base&^(wheelSlots-1) | int64(i), true
	}
	_, _, start = w.above()
	return start, true
}

// Pop unfiles the first timer in (firing time, sequence number) if it is
// due at or before limit, and returns its firing time and function; fn
// is nil when none is due. base follows, but never beyond limit. Each
// slot above level 0 that base enters on the way is refiled, front to
// back, into the levels below, which are empty at that moment. A
// released record is free again before its function runs.
func (w *Wheel) Pop(limit int64) (when int64, fn func()) {
	for w.n > 0 {
		if i, ok := w.firstOccupied(0, uint(w.base)%wheelSlots); ok {
			if when = w.base&^(wheelSlots-1) | int64(i); when > limit {
				return 0, nil
			}
			w.base = when
			t := w.slots[0][i].head
			w.unlink(t, 0, i)
			fn, t.fn = t.fn, nil
			w.leave(t, timerFired)
			return when, fn
		}
		l, i, start := w.above()
		if start > limit {
			break
		}
		w.base = start
		s := &w.slots[l][i]
		t := s.head
		*s = slot{}
		w.occupied[l][i/64] &^= 1 << (i % 64)
		for t != nil {
			after := t.next
			w.file(t)
			t = after
		}
	}
	return 0, nil
}

// Check walks the wheel and its free records and reports the first
// thing wrong: a timer filed outside the slot its firing time and base
// assign it to, or filed after it left; a slot whose sequence numbers
// do not increase front to back; a broken back link or tail; an
// occupied bit that disagrees with its slot; a count that differs from
// what is filed; a free record that is filed, listed twice, or not
// released and out of the wheel. A guarded wheel's owner holds the lock.
func (w *Wheel) Check() error {
	filed := map[*Timer]bool{}
	for l := range w.slots {
		for i := range w.slots[l] {
			s := &w.slots[l][i]
			if occ := w.occupied[l][i/64]>>(i%64)&1 == 1; occ != (s.head != nil) {
				return fmt.Errorf("slot %d of level %d: occupied bit %v, head %p", i, l, occ, s.head)
			}
			var prev *Timer
			for t := s.head; t != nil; prev, t = t, t.next {
				switch gl, gi := w.slotOf(t); {
				case gl != l || gi != uint(i):
					return fmt.Errorf("timer for %d is in slot %d of level %d, base %d assigns slot %d of level %d", t.when, i, l, w.base, gi, gl)
				case t.fn == nil:
					return fmt.Errorf("timer for %d is filed, fired or cancelled", t.when)
				case t.prev != prev:
					return fmt.Errorf("timer for %d in slot %d of level %d has a broken back link", t.when, i, l)
				case prev != nil && w.seqOf(t) <= w.seqOf(prev):
					return fmt.Errorf("timer for %d in slot %d of level %d has seq %d, behind seq %d", t.when, i, l, w.seqOf(t), w.seqOf(prev))
				}
				filed[t] = true
			}
			if s.tail != prev {
				return fmt.Errorf("slot %d of level %d: tail is not its last timer", i, l)
			}
		}
	}
	if len(filed) != w.n {
		return fmt.Errorf("the wheel counts %d timers, its slots hold %d", w.n, len(filed))
	}
	free := map[*Timer]bool{}
	for _, list := range []*Timer{w.free, w.released.Load()} {
		for t := list; t != nil; t = t.next {
			st := atomic.LoadUint64(&t.key) & (1<<stateBits - 1)
			switch {
			case free[t]:
				return fmt.Errorf("timer for %d is free twice", t.when)
			case filed[t]:
				return fmt.Errorf("timer for %d is free while filed", t.when)
			case st&timerReleased == 0 || st&(timerFired|timerCancelled) == 0:
				return fmt.Errorf("timer for %d is free, state %03b: not released, or not out of the wheel", t.when, st)
			}
			free[t] = true
		}
	}
	return nil
}
