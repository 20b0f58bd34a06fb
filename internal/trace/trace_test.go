package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"flowercdn/internal/metrics"
	"flowercdn/internal/runtime"
)

func TestAppendClampsTimestamps(t *testing.T) {
	path := Append(nil, Hop{Kind: HopIssue, Node: 1, At: 100})
	path = Append(path, Hop{Kind: HopRoute, Node: 2, At: 90}) // late merge
	path = Append(path, Hop{Kind: HopServe, Node: 3, At: 150})
	want := []int64{100, 100, 150}
	for i, h := range path {
		if h.At != want[i] {
			t.Fatalf("hop %d at %d, want %d", i, h.At, want[i])
		}
	}
}

func TestConcatClampsSegments(t *testing.T) {
	client := Append(nil, Hop{Kind: HopIssue, Node: 1, At: 200})
	// A response ships back ring hops recorded before the local clock
	// reached 200: the merged path must stay nondecreasing.
	remote := []Hop{
		{Kind: HopRoute, Node: 5, At: 120},
		{Kind: HopHome, Node: 6, At: 180},
	}
	merged := Concat(client, remote)
	if len(merged) != 3 {
		t.Fatalf("got %d hops, want 3", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].At < merged[i-1].At {
			t.Fatalf("non-monotone at hop %d: %d < %d", i, merged[i].At, merged[i-1].At)
		}
	}
	if merged[1].At != 200 || merged[2].At != 200 {
		t.Fatalf("remote hops not clamped: %+v", merged)
	}
}

func TestCopyHopsOwnership(t *testing.T) {
	if CopyHops(nil) != nil {
		t.Fatal("CopyHops(nil) should be nil")
	}
	if CopyHops([]Hop{}) != nil {
		t.Fatal("CopyHops(empty) should be nil")
	}
	orig := []Hop{{Kind: HopIssue, Node: 1, At: 1}}
	cp := CopyHops(orig)
	orig[0].Node = 99 // pooled-state recycling must not reach the copy
	if cp[0].Node != 1 {
		t.Fatalf("copy aliases the original: %+v", cp)
	}
}

func TestStatsMeanHops(t *testing.T) {
	if got := (Stats{}).MeanHops(); got != 0 {
		t.Fatalf("empty stats mean hops = %v, want 0", got)
	}
	s := Stats{RoutedQueries: 4, RouteHops: 10}
	if got := s.MeanHops(); got != 2.5 {
		t.Fatalf("mean hops = %v, want 2.5", got)
	}
}

// TestNilTracerIsDisabled pins the zero-overhead contract: a nil
// *Tracer is the disabled state, every method is safe, and the calls
// drivers make unconditionally (Delivered, Emit) allocate nothing.
func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Delivered(3) // must not panic
	tr.Emit(10, &Record{Query: 1})
	if s := tr.Stats(); s != (Stats{}) {
		t.Fatalf("nil tracer has stats %+v", s)
	}

	rec := &Record{Query: 1}
	allocs := testing.AllocsPerRun(100, func() {
		if tr.Enabled() {
			t.Fatal("enabled mid-run")
		}
		tr.Delivered(5)
		tr.Emit(42, rec)
	})
	if allocs != 0 {
		t.Fatalf("disabled-path calls allocate %v per run, want 0", allocs)
	}
}

func TestTracerEmitReachesCollector(t *testing.T) {
	coll := &Collector{}
	tr := New(metrics.NewPipeline(coll), func(id runtime.NodeID) runtime.Locality { return runtime.Locality(id + 10) })
	if !tr.Enabled() {
		t.Fatal("live tracer reports disabled")
	}
	tr.Delivered(2)
	tr.Delivered(4)
	rec := &Record{Query: 7, Client: 3, Key: 99, Hops: []Hop{{Kind: HopIssue, Node: 3}, {Kind: HopServe, Node: 8, At: 5}}}
	tr.Emit(5, rec)
	if rec.Loc != 13 || rec.Hops[0].Loc != 13 || rec.Hops[1].Loc != 18 {
		t.Fatalf("Emit stamped localities %d, %d, %d; want 13, 13, 18", rec.Loc, rec.Hops[0].Loc, rec.Hops[1].Loc)
	}
	if got := tr.Stats(); got != (Stats{RoutedQueries: 2, RouteHops: 6}) {
		t.Fatalf("stats %+v", got)
	}
	if coll.Len() != 1 {
		t.Fatalf("collector has %d records, want 1", coll.Len())
	}
	if got := coll.Records()[0]; got != rec {
		t.Fatalf("collector holds %p, want %p", got, rec)
	}
}

// TestCollectorIgnoresOtherKinds: aggregate metrics events must fall
// through the trace collector untouched.
func TestCollectorIgnoresOtherKinds(t *testing.T) {
	coll := &Collector{}
	coll.Observe(metrics.Event{Kind: metrics.KindQuery})
	coll.Observe(metrics.Event{Kind: metrics.KindCounter})
	coll.Add(nil)
	if coll.Len() != 0 {
		t.Fatalf("collector caught %d non-trace events", coll.Len())
	}
}

func TestRecordRouteHops(t *testing.T) {
	rec := &Record{Hops: []Hop{
		{Kind: HopIssue}, {Kind: HopRoute}, {Kind: HopRoute},
		{Kind: HopHome}, {Kind: HopServe},
	}}
	if got := rec.RouteHops(); got != 2 {
		t.Fatalf("route hops = %d, want 2", got)
	}
}

func testRecords() []*Record {
	return []*Record{
		{
			Query: 2, Client: 5, Loc: 1, Key: 42, Outcome: metrics.HitDirectory, Attempts: 1,
			Hops: []Hop{
				{Kind: HopIssue, Node: 5, Loc: 1, At: 10},
				{Kind: HopRoute, Node: 7, Loc: 2, At: 30},
				{Kind: HopHome, Node: 9, Loc: 0, At: 55},
				{Kind: HopProbe, Node: 11, Loc: 1, At: 70, FalsePositive: true},
				{Kind: HopServe, Node: 12, Loc: 1, At: 90},
			},
		},
		{
			Query: 1, Client: 3, Loc: 0, Key: 7, Outcome: metrics.Miss, Attempts: 2,
			Hops: []Hop{
				{Kind: HopIssue, Node: 3, Loc: 0, At: 5},
				{Kind: HopScan, Node: 4, Loc: 2, At: 25},
				{Kind: HopServe, Node: 0, Loc: 0, At: 60},
			},
		},
	}
}

func TestCSVRoundTrip(t *testing.T) {
	recs := testRecords()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// WriteCSV sorts canonically, so compare against the sorted view.
	want := append([]*Record{}, recs...)
	SortRecords(want)
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("round trip changed records:\n in: %+v\nout: %+v", want, back)
	}
}

// TestCSVCanonicalOrder: the byte stream is a function of the record
// set, not of collection order — the property the determinism test and
// tracediff build on.
func TestCSVCanonicalOrder(t *testing.T) {
	recs := testRecords()
	var a, b bytes.Buffer
	if err := WriteCSV(&a, recs); err != nil {
		t.Fatal(err)
	}
	rev := []*Record{recs[1], recs[0]}
	if err := WriteCSV(&b, rev); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("CSV depends on collection order:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"not,a,trace\n",
		strings.Join(csvHeader, ",") + "\n1,2,3,4,5,6,0,warp,8,9,10,false\n",
	} {
		if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
			t.Fatalf("ReadCSV accepted %q", bad)
		}
	}
}
