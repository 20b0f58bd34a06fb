package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowercdn/internal/metrics"
	"flowercdn/internal/runtime"
	"flowercdn/internal/trace"
)

// records is a two-query trace set; moved sends the second query to
// another home node and adds a third, routed query.
func records(moved bool) []*trace.Record {
	home := runtime.NodeID(9)
	if moved {
		home = 10
	}
	recs := []*trace.Record{
		{Query: 1, Client: 5, Loc: 1, Key: 42, Outcome: metrics.HitDirectory, Attempts: 1, Hops: []trace.Hop{
			{Kind: trace.HopIssue, Node: 5, Loc: 1, At: 10},
			{Kind: trace.HopRoute, Node: 7, Loc: 2, At: 30},
			{Kind: trace.HopHome, Node: 9, Loc: 0, At: 55},
			{Kind: trace.HopProbe, Node: 11, Loc: 1, At: 70, FalsePositive: true},
			{Kind: trace.HopServe, Node: 12, Loc: 1, At: 90},
		}},
		{Query: 2, Client: 3, Loc: 0, Key: 7, Outcome: metrics.Miss, Attempts: 1, Hops: []trace.Hop{
			{Kind: trace.HopIssue, Node: 3, Loc: 0, At: 5},
			{Kind: trace.HopHome, Node: home, Loc: 0, At: 25},
			{Kind: trace.HopServe, Node: 0, Loc: 0, At: 60},
		}},
	}
	if moved {
		recs = append(recs, &trace.Record{Query: 3, Client: 4, Loc: 0, Key: 8, Outcome: metrics.Miss, Attempts: 1, Hops: []trace.Hop{
			{Kind: trace.HopIssue, Node: 4, Loc: 0, At: 5},
			{Kind: trace.HopRoute, Node: 7, Loc: 2, At: 15},
			{Kind: trace.HopHome, Node: 9, Loc: 0, At: 25},
			{Kind: trace.HopServe, Node: 0, Loc: 0, At: 60},
		}})
	}
	return recs
}

func writeCSV(t *testing.T, path string, recs []*trace.Record) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRun(t *testing.T) {
	dir := t.TempDir()
	sim := writeCSV(t, filepath.Join(dir, "sim.csv"), records(false))
	again := writeCSV(t, filepath.Join(dir, "again", "sim.csv"), records(false))
	sock := writeCSV(t, filepath.Join(dir, "sock.csv"), records(true))
	garbage := filepath.Join(dir, "garbage.csv")
	if err := os.WriteFile(garbage, []byte("not,a,trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout []string
		stderr string
	}{
		{"identical", []string{sim, again}, 0, []string{
			"--- " + sim + "\ntraces: 2 records, 8 hops, mean 0.50 route hops, 100.0% served within locality",
			"summary false positives: 1 probe hops\n",
			"--- " + again + "\n",
			"structurally identical: same hop mix, same per-query paths\n",
		}, ""},
		{"different", []string{sim, sock}, 1, []string{
			"--- sim.csv\n", "--- sock.csv\n",
			"warn: record count differs: sim.csv=2 sock.csv=3\n",
			"warn: issue hop count differs: sim.csv=2 sock.csv=3\n",
			"warn: route hop count differs: sim.csv=1 sock.csv=2\n",
			"warn: mean route hops differ by 0.167: sim.csv=0.500 sock.csv=0.667\n",
			"warn: 1 shared queries resolve along different paths (e.g. [2])\n",
		}, ""},
		{"one file", []string{sim}, 2, nil, "usage: tracediff <a.csv> <b.csv>\n"},
		{"missing file", []string{sim, filepath.Join(dir, "none.csv")}, 2, nil, "tracediff: " + filepath.Join(dir, "none.csv") + ": open "},
		{"not a trace", []string{garbage, sim}, 2, nil, "tracediff: " + garbage + ": "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit status %d, want %d; stderr %q", code, tc.code, stderr.String())
			}
			for _, want := range tc.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
				}
			}
			if !strings.HasPrefix(stderr.String(), tc.stderr) || (tc.stderr == "") != (stderr.Len() == 0) {
				t.Errorf("stderr = %q, want it to start with %q", stderr.String(), tc.stderr)
			}
		})
	}
}
