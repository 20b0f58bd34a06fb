package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rusage returns the user and system CPU seconds of who:
// syscall.RUSAGE_SELF for the process, RUSAGE_THREAD for the calling
// OS thread.
func rusage(who int) (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic(err) // either who, with a valid pointer, cannot fail on Linux
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime)
}

// cpuTimes returns the process's user and system CPU seconds so far.
func cpuTimes() (user, sys float64) { return rusage(syscall.RUSAGE_SELF) }

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// stolenSeconds reads from /proc/stat how long the hypervisor has run
// somebody else while a CPU of this machine wanted to run, summed over
// the CPUs. It reads 0 where the kernel does not say.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // /proc/stat counts in USER_HZ, 100 on Linux
}

// usage is one snapshot of the counters a timed section is charged
// with; since gives the section's share.
type usage struct {
	at        time.Time
	user, sys float64
	stolen    float64
	mallocs   uint64
	allocB    uint64
	gcCycles  uint32
	gcPauseNs uint64
}

func snapshot() usage {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	u := usage{mallocs: m.Mallocs, allocB: m.TotalAlloc, gcCycles: m.NumGC, gcPauseNs: m.PauseTotalNs}
	u.user, u.sys = cpuTimes()
	u.stolen = stolenSeconds()
	u.at = time.Now()
	return u
}

type usageDelta struct {
	wallS, userS, sysS float64
	stolenS            float64
	mallocs, allocB    float64
	gcCycles           float64
	gcPauseMs          float64
}

// ownWallS is the section's wall-clock less the time stolen from the
// machine during it: the time the program had. Both CPUs can be stolen
// at once, so a floor keeps it positive.
func (d usageDelta) ownWallS() float64 {
	return max(d.wallS-d.stolenS, d.wallS/10)
}

func (u usage) since(start usage) usageDelta {
	return usageDelta{
		wallS:     u.at.Sub(start.at).Seconds(),
		userS:     u.user - start.user,
		sysS:      u.sys - start.sys,
		stolenS:   u.stolen - start.stolen,
		mallocs:   float64(u.mallocs - start.mallocs),
		allocB:    float64(u.allocB - start.allocB),
		gcCycles:  float64(u.gcCycles - start.gcCycles),
		gcPauseMs: float64(u.gcPauseNs-start.gcPauseNs) / 1e6,
	}
}

// median returns the middle value (mean of the two middle ones for an
// even count); it panics on an empty slice, which is always a bug here.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// envBlock describes the machine and build a results file came from.
type envBlock struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readEnv() envBlock {
	e := envBlock{
		GoVersion:  goruntime.Version(),
		NumCPU:     goruntime.NumCPU(),
		GOMAXPROCS: benchProcs,
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout (the driver's) the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}
