//go:build race

package socknet

// raceEnabled reports whether the test binary was built with the race
// detector, under which the run loop produces frames several times more
// slowly while a write syscall costs what it always does: floods
// coalesce less, and the flood test lowers its floor.
const raceEnabled = true
