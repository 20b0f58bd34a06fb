package main

import (
	goruntime "runtime"
	"syscall"
)

// The machines this benchmark runs on are shared. Most of what that
// does to a measurement is stolen time, which the kernel reports and the
// wall-clock metrics leave out (usageDelta.ownWallS). The rest is that
// the same work costs more CPU time while the neighbours are busy: caches
// and memory are shared too. For minutes at a time a rep costs a quarter
// more CPU than before, and the CPU metric must nevertheless hold a bound
// of at most 25 %. So CPU time is reported at the speed of a reference
// machine: each timed unit is scaled by how fast this machine ran, just
// before and just after it, a fixed kernel that belongs to the benchmark
// and that no change to the system can touch. Interleaved with a rep
// over ten minutes, scaling by the kernel cut the drift of the rep's CPU
// time from 34 % to 14 % (medians of blocks of twenty, furthest apart),
// and the spread of eight-rep medians from 9 % to 5.5 %.
// A pure arithmetic loop did not track the drift at all, so the kernel
// is shaped like the simulator's engine: a binary heap of timers ordered
// by (when, seq), each firing touching its node's state and rearming
// itself — over 10 MB, so that it misses in cache as the simulator does.
// It allocates nothing, so the state of the Go heap does not show in it.

// refKernelNominalCPU is what the kernel takes on the 2-core box the
// baselines were measured on, in a quiet minute, in seconds of its
// thread's CPU time: the reference machine.
const refKernelNominalCPU = 0.050

const (
	refKernelNodes  = 1 << 16
	refKernelEvents = 200_000
)

type refTimer struct {
	when int64
	seq  uint64
}

var refKernelMem struct {
	timers [refKernelNodes]refTimer
	state  [refKernelNodes][16]int64
	queue  [refKernelNodes]int32
}

func refLess(a, b int32) bool {
	ta, tb := &refKernelMem.timers[a], &refKernelMem.timers[b]
	if ta.when != tb.when {
		return ta.when < tb.when
	}
	return ta.seq < tb.seq
}

func refSiftDown(i int) {
	q := &refKernelMem.queue
	for {
		l := 2*i + 1
		if l >= refKernelNodes {
			return
		}
		if l+1 < refKernelNodes && refLess(q[l+1], q[l]) {
			l++
		}
		if !refLess(q[l], q[i]) {
			return
		}
		q[i], q[l] = q[l], q[i]
		i = l
	}
}

// threadCPU returns the CPU seconds of the calling OS thread.
func threadCPU() float64 {
	user, sys := rusage(syscall.RUSAGE_THREAD)
	return user + sys
}

// refKernel runs the reference kernel once — always the same work — and
// returns the CPU seconds of its own thread.
func refKernel() float64 {
	goruntime.LockOSThread()
	defer goruntime.UnlockOSThread()
	m := &refKernelMem
	rng := xorshift(2463534242)
	var seq uint64
	for i := range m.timers {
		seq++
		m.timers[i] = refTimer{when: int64(rng.next() % 60000), seq: seq}
		m.queue[i] = int32(i)
	}
	startCPU := threadCPU()
	for i := refKernelNodes/2 - 1; i >= 0; i-- {
		refSiftDown(i)
	}
	for e := 0; e < refKernelEvents; e++ {
		id := m.queue[0]
		now := m.timers[id].when
		m.state[id][seq&15] = now
		seq++
		m.timers[id] = refTimer{when: now + int64(rng.next()%60000), seq: seq}
		refSiftDown(0)
	}
	return threadCPU() - startCPU
}

// speedometer collects reference-kernel readings: one before the first
// timed unit of a run and one after every unit, so unit i lies between
// readings i and i+1.
type speedometer struct {
	CPUS []float64 `json:"cpu_s"`
}

func (s *speedometer) read() { s.CPUS = append(s.CPUS, refKernel()) }

// cpuSpeed is how fast this machine ran around unit i, as a share of the
// reference machine's speed: below 1 when it ran slow. CPU seconds
// measured then, times cpuSpeed, are CPU seconds on the reference
// machine.
func (s *speedometer) cpuSpeed(i int) float64 {
	return refKernelNominalCPU / ((s.CPUS[i] + s.CPUS[i+1]) / 2)
}
