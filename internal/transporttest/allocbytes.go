package transporttest

import goruntime "runtime"

// AllocBytes returns the bytes allocated by rounds calls of f, after one
// call to warm up. testing.AllocsPerRun counts objects and rounds the
// average down, which hides an allocation shared by many calls — a timer
// slab is 1/512 of an object per timer, and 48 bytes of it; the byte
// count does not. It is the smallest of three measurements: what the
// runtime allocates once on f's behalf at a moment of its choosing (it
// builds a type-assertion cache on a random miss) is not f's steady
// state. f must keep to one goroutine.
func AllocBytes(rounds int, f func()) uint64 {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	f()
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			f()
		}
		goruntime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
