package transporttest

import (
	goruntime "runtime"
	"strings"
	"testing"

	"flowercdn/internal/sim"
)

// TestReleaseClockReportsUseAfterRelease pins the checker itself: an
// honest sequence reports nothing, and every method called after
// Release, a second Release included, is reported once with this file
// as the site of both calls.
func TestReleaseClockReportsUseAfterRelease(t *testing.T) {
	eng := sim.NewEngine()
	var reports []string
	c := ReleaseClock(eng.Clock(), func(v string) { reports = append(reports, v) })

	fired := 0
	kept := c.Schedule(5, func() { fired++ })
	c.Schedule(5, func() { fired++ }).Release()
	gone := c.At(7, func() { fired++ })
	gone.Cancel()
	gone.Release()
	eng.RunAll()
	if kept.Cancel() {
		t.Fatal("a kept handle that fired must cancel to no effect")
	}
	kept.Release()
	if fired != 2 || len(reports) != 0 {
		t.Fatalf("honest use: %d fired (want 2), reports %q", fired, reports)
	}

	gone.Cancel()
	gone.Release()
	if len(reports) != 2 {
		t.Fatalf("two calls after Release, %d reports: %q", len(reports), reports)
	}
	for i, method := range []string{"Cancel", "Release"} {
		if !strings.HasPrefix(reports[i], method+" at ") || strings.Count(reports[i], "release_test.go:") != 2 {
			t.Errorf("report %d is %q: want the %s call and the Release, both in this file", i, reports[i], method)
		}
	}
}

// TestReleaseClockReportsDroppedHandle pins the other half of the
// checker: a handle that becomes unreachable without Release is
// reported by ReportDropped, once, with this file as the site that
// scheduled it; a released handle and one still held are not, and
// nothing collected after ReportDropped is.
func TestReleaseClockReportsDroppedHandle(t *testing.T) {
	eng := sim.NewEngine()
	var reports []string
	c := ReleaseClock(eng.Clock(), func(v string) { reports = append(reports, v) })

	c.Schedule(5, func() {}) // dropped, unreleased
	c.Schedule(5, func() {}).Release()
	held := c.Schedule(9, func() {})
	eng.RunAll()
	c.ReportDropped()
	if len(reports) != 1 || !strings.HasPrefix(reports[0], "timer scheduled at ") ||
		!strings.Contains(reports[0], "release_test.go:") || !strings.HasSuffix(reports[0], "dropped without Release") {
		t.Fatalf("one dropped handle: reports %q", reports)
	}
	goruntime.KeepAlive(held) // unreachable from here on

	c.ReportDropped()
	if len(reports) != 1 {
		t.Fatalf("a handle dropped after ReportDropped was reported: %q", reports[1:])
	}
}
