package simnet

import (
	"errors"
	"math"
	"testing"

	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
)

func TestLossRateValidation(t *testing.T) {
	f := newFixture(t)
	for _, p := range []float64{-0.1, 1.0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("loss rate %g accepted", p)
				}
			}()
			f.net.SetLossRate(p, f.rng)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("loss without rng accepted")
			}
		}()
		f.net.SetLossRate(0.1, nil)
	}()
	// Zero without rng is fine (disables loss).
	f.net.SetLossRate(0, nil)
}

func TestSendLossRateEmpirical(t *testing.T) {
	f := newFixture(t)
	a := f.join(&echoNode{})
	bn := &echoNode{}
	b := f.join(bn)
	const p = 0.3
	f.net.SetLossRate(p, rnd.New(99))
	const n = 5000
	for i := 0; i < n; i++ {
		f.net.Send(a, b, i)
	}
	f.eng.RunAll()
	got := float64(len(bn.msgs)) / n
	if math.Abs(got-(1-p)) > 0.03 {
		t.Fatalf("delivery rate %.3f, want ~%.2f", got, 1-p)
	}
	if f.net.Stats().MessagesDropped == 0 {
		t.Fatal("drops not counted")
	}
}

func TestRequestSurvivesLossViaTimeout(t *testing.T) {
	// Under loss, every request still completes exactly once: either
	// with a response or with ErrTimeout.
	f := newFixture(t)
	a := f.join(&echoNode{})
	b := f.join(&echoNode{})
	f.net.SetLossRate(0.4, rnd.New(7))
	const n = 500
	completions, timeouts := 0, 0
	for i := 0; i < n; i++ {
		f.net.Request(a, b, i, 2000, func(_ any, err error) {
			completions++
			if errors.Is(err, runtime.ErrTimeout) {
				timeouts++
			}
		})
	}
	f.eng.RunAll()
	if completions != n {
		t.Fatalf("%d/%d requests completed", completions, n)
	}
	if timeouts == 0 || timeouts == n {
		t.Fatalf("timeouts = %d of %d; expected a mix under 40%% loss", timeouts, n)
	}
}

func TestZeroLossIsReliable(t *testing.T) {
	f := newFixture(t)
	a := f.join(&echoNode{})
	bn := &echoNode{}
	b := f.join(bn)
	f.net.SetLossRate(0.5, rnd.New(3))
	f.net.SetLossRate(0, nil) // restore reliability
	for i := 0; i < 200; i++ {
		f.net.Send(a, b, i)
	}
	f.eng.RunAll()
	if len(bn.msgs) != 200 {
		t.Fatalf("reliable network delivered %d/200", len(bn.msgs))
	}
}
