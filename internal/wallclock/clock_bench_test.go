package wallclock

import (
	"testing"

	"flowercdn/internal/runtime"
)

// BenchmarkScheduleRPCLegs prices what the run loop does per RPC on the
// socket backend's closed loop: 512 calls in flight, each holding a
// 5 s deadline. One op schedules a deadline and a zero-delay timer (a
// leg), lets Run pop the leg, and in it cancels and releases the
// deadline scheduled 512 ops before — the reply beating its timeout —
// so 512 deadlines stay live throughout. Everything runs inside one
// Run, on its goroutine.
func BenchmarkScheduleRPCLegs(b *testing.B) {
	const inFlight, deadline = 512, 5000
	c := NewClock()
	nop := func() {}
	var live [inFlight]runtime.Timer
	for i := range live {
		live[i] = c.Schedule(deadline, nop)
	}
	n := 0
	var leg func()
	leg = func() {
		d := &live[n%inFlight]
		(*d).Cancel()
		(*d).Release()
		if n == b.N {
			c.Stop()
			return
		}
		n++
		*d = c.Schedule(deadline, nop)
		c.Schedule(0, leg).Release()
	}
	b.ReportAllocs()
	b.ResetTimer()
	c.Schedule(0, leg).Release()
	c.Run(1 << 40)
}
