package obs

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"flowercdn/internal/metrics"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	s := NewServer()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	s.Observe(metrics.QueryEvent(0, metrics.HitDirectory, 120, 80))
	s.Observe(metrics.QueryEvent(1, metrics.Miss, 300, 200))
	s.Observe(metrics.CounterEvent(1, "gossip.sent", 3))

	code, body := get(t, "http://"+addr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{"queries_total 2", "hits_total 1", "hit_ratio 0.5", `counter{name="gossip.sent"} 3`} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
}

// Stop is idempotent and concurrency-safe: the harness stops an
// attached server when the run returns, and the owning process may
// stop it again on its own shutdown path.
func TestStopIdempotent(t *testing.T) {
	s := NewServer()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, "http://"+addr+"/metrics"); code != http.StatusOK {
		t.Fatalf("status %d before stop", code)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Stop(); err != nil {
				t.Errorf("Stop: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := s.Stop(); err != nil {
		t.Fatalf("repeated Stop: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("endpoint still serving after Stop")
	}
}

// Stop on a never-started server is a no-op, so harness error paths
// can stop unconditionally.
func TestStopBeforeStart(t *testing.T) {
	s := NewServer()
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if s.Addr() != "" {
		t.Fatalf("Addr = %q before Start", s.Addr())
	}
}
