package flowercdn

import (
	"strings"
	"testing"

	"flowercdn/internal/runtime"
)

func tiny() Config {
	cfg := QuickConfig()
	cfg.Population = 150
	cfg.Hours = 3
	cfg.Sites = 10
	cfg.ActiveSites = 2
	cfg.ObjectsPerSite = 100
	return cfg
}

func TestRunFlowerFacade(t *testing.T) {
	res, err := Run(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != Flower {
		t.Fatalf("protocol = %q", res.Protocol)
	}
	if res.Queries == 0 || res.Hits == 0 {
		t.Fatalf("no activity: queries=%d hits=%d", res.Queries, res.Hits)
	}
	if len(res.Series) != tiny().Hours || res.Series[0].Start != 0 || res.Series[1].Start != runtime.Hour {
		t.Fatalf("series malformed: %+v", res.Series)
	}
	if res.HitRatio <= 0 || res.HitRatio > 1 {
		t.Fatalf("hit ratio out of range: %g", res.HitRatio)
	}
	if !strings.Contains(FormatSummary(res), "hit ratio") {
		t.Fatal("summary render broken")
	}
	if res.Lookup.Total == 0 || res.Transfer.Total == 0 {
		t.Fatal("distributions empty")
	}
}

func TestRunAllProtocols(t *testing.T) {
	for _, p := range []Protocol{Flower, PetalUp, Squirrel} {
		cfg := tiny()
		cfg.Protocol = p
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Queries == 0 {
			t.Fatalf("%s: no queries", p)
		}
	}
}

func TestUnknownProtocolRejected(t *testing.T) {
	cfg := tiny()
	cfg.Protocol = "gopherswarm"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestEmptyProtocolDefaultsToFlower(t *testing.T) {
	cfg := tiny()
	cfg.Protocol = ""
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != Flower {
		t.Fatalf("protocol = %q, want flower default", res.Protocol)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := tiny()
	cfg.Population = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero population accepted")
	}
	cfg = tiny()
	cfg.PushThreshold = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero push threshold accepted")
	}
}

func TestComparisonAndFormatters(t *testing.T) {
	f, s, err := RunComparison(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if f.Protocol != Flower || s.Protocol != Squirrel {
		t.Fatalf("protocols: %q %q", f.Protocol, s.Protocol)
	}
	for name, out := range map[string]string{
		"fig3": FormatFig3(f, s),
		"fig4": FormatFig4(f, s),
		"fig5": FormatFig5(f, s),
	} {
		if !strings.Contains(out, "Flower") {
			t.Fatalf("%s render broken:\n%s", name, out)
		}
	}
	t1, err := FormatTable1(tiny())
	if err != nil || !strings.Contains(t1, "Table 1") {
		t.Fatalf("table1: %v\n%s", err, t1)
	}
}

func TestScalabilitySweep(t *testing.T) {
	cfg := tiny()
	cfg.Hours = 2
	rows, err := RunScalability(cfg, []int{100, 150})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "Flower-CDN") {
		t.Fatalf("table2 render broken:\n%s", out)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(tiny())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if a.Queries != b.Queries || a.Hits != b.Hits {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", a.Queries, a.Hits, b.Queries, b.Hits)
	}
}
