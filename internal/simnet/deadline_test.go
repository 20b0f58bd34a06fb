package simnet

import (
	"errors"
	"slices"
	"testing"

	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
)

// On the engine a Request whose target is local and whose round trip is
// shorter than its timeout only reserves its deadline's place, and
// files the deadline there once it can fire. These tests hold every
// such deadline to the instant and the order it had when Request filed
// it at once.

// outcome records how and when an RPC completed.
type outcome struct {
	at   int64
	err  error
	done int
}

func (o *outcome) cb(f *fixture) func(any, error) {
	return func(_ any, err error) {
		o.at, o.err = f.eng.Now(), err
		o.done++
	}
}

// expectTimeout fails unless o timed out once, at want.
func (o *outcome) expectTimeout(t *testing.T, what string, want int64) {
	t.Helper()
	if o.done != 1 || !errors.Is(o.err, runtime.ErrTimeout) || o.at != want {
		t.Fatalf("%s: completed %d times, last at %d with %v; want one ErrTimeout at %d", what, o.done, o.at, o.err, want)
	}
}

func TestTargetDyingInFlightTimesOutAtDeadline(t *testing.T) {
	f := newFixture(t)
	a := f.join(&echoNode{})
	b := f.join(&echoNode{})
	f.eng.Run(1234)
	const timeout = 2000
	var o outcome
	var order []string
	f.net.Request(a, b, "x", timeout, func(resp any, err error) {
		o.cb(f)(resp, err)
		order = append(order, "deadline")
	})
	f.eng.Schedule(timeout, func() { order = append(order, "timer") })
	f.net.Fail(b)
	f.eng.RunAll()
	o.expectTimeout(t, "RPC to a target that died in flight", 1234+timeout)
	if !slices.Equal(order, []string{"deadline", "timer"}) {
		t.Fatalf("fired %v; the deadline was scheduled first", order)
	}
}

func TestDyingTargetsTimeOutInIssueOrder(t *testing.T) {
	f := newFixture(t)
	a := f.join(&echoNode{})
	// Two targets, the one asked first the farther: its request arrives,
	// and its deadline is filed, after the other's.
	var far, near runtime.NodeID = -1, -1
	for far < 0 {
		id := f.join(&echoNode{})
		switch {
		case near < 0:
			near = id
		case f.net.Latency(a, id) > f.net.Latency(a, near):
			far = id
		case f.net.Latency(a, id) < f.net.Latency(a, near):
			far, near = near, id
		}
	}
	const timeout = 3000
	var order []runtime.NodeID
	for _, to := range []runtime.NodeID{far, near} {
		f.net.Request(a, to, "x", timeout, func(_ any, err error) {
			if !errors.Is(err, runtime.ErrTimeout) || f.eng.Now() != timeout {
				t.Errorf("RPC to %d completed at %d with %v; want ErrTimeout at %d", to, f.eng.Now(), err, timeout)
			}
			order = append(order, to)
		})
	}
	f.net.Fail(far)
	f.net.Fail(near)
	f.eng.RunAll()
	if !slices.Equal(order, []runtime.NodeID{far, near}) {
		t.Fatalf("timed out in order %v; issued to %d, then %d", order, far, near)
	}
}

// TestLostLegTimesOutAtDeadline issues RPCs one at a time over a lossy
// network until both a lost request and a lost response have been seen:
// each times out exactly at its deadline, as does every other RPC the
// loss draws catch.
func TestLostLegTimesOutAtDeadline(t *testing.T) {
	f := newFixture(t)
	a := f.join(&echoNode{})
	bn := &echoNode{}
	b := f.join(bn)
	f.net.SetLossRate(0.5, rnd.New(5))
	const timeout = 2500
	lostReq, lostResp := 0, 0
	for i := 0; i < 200 && (lostReq == 0 || lostResp == 0); i++ {
		t0, served := f.eng.Now(), bn.rpcs
		var o outcome
		f.net.Request(a, b, i, timeout, o.cb(f))
		f.eng.RunAll()
		if o.done != 1 {
			t.Fatalf("RPC %d completed %d times; want once", i, o.done)
		}
		if o.err == nil {
			continue
		}
		if bn.rpcs > served {
			lostResp++
		} else {
			lostReq++
		}
		o.expectTimeout(t, "RPC with a lost leg", t0+timeout)
	}
	if lostReq == 0 || lostResp == 0 {
		t.Fatalf("saw %d lost requests and %d lost responses; want both", lostReq, lostResp)
	}
}

// hiddenClock is the engine's clock without late filing, as the wall
// clock is.
type hiddenClock struct{ runtime.Clock }

func TestRoundTripAtTimeoutFilesDeadlineAtOnce(t *testing.T) {
	f := newFixture(t)
	a := f.join(&echoNode{})
	bn := &echoNode{}
	b := f.join(bn)
	rtt := 2 * f.net.Latency(a, b)
	for _, tc := range []struct {
		name    string
		timeout int64
		clock   runtime.Clock
	}{
		{"round trip equal to the timeout", rtt, f.eng.Clock()},
		{"round trip over the timeout", rtt - 1, f.eng.Clock()},
		{"clock without late filing", rtt + 1000, hiddenClock{f.eng.Clock()}},
	} {
		f.net.Bind(tc.clock)
		t0 := f.eng.Now()
		var o outcome
		f.net.Request(a, b, "x", tc.timeout, o.cb(f))
		if got := f.eng.Pending(); got != 2 {
			t.Fatalf("%s: %d timers pending after Request; want 2, the request leg and the deadline", tc.name, got)
		}
		f.eng.RunAll()
		if tc.timeout > rtt {
			if o.done != 1 || o.err != nil {
				t.Fatalf("%s: completed %d times with %v; want one reply", tc.name, o.done, o.err)
			}
			continue
		}
		// The deadline was filed first: it fires ahead of a reply due at
		// the same instant.
		o.expectTimeout(t, tc.name, t0+tc.timeout)
	}
	if bn.rpcs != 3 {
		t.Fatalf("the target served %d requests; want 3", bn.rpcs)
	}
}
