package transporttest

import (
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
