package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// -compare judges two results files of this benchmark against the
// bounds fixed in the spec: one row per (workload, end-to-end metric).

func loadResults(path string) (*suiteResults, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &suiteResults{}
	if err := json.Unmarshal(b, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// spread is the distance between the first and third quartile of the
// samples as a share of their median: the run-to-run noise a single
// results file can show. Fewer than four samples show none.
func spread(samples []float64) float64 {
	if len(samples) < 4 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / med
}

// worseBy is how much worse b reads than a as a share of a, in the
// metric's own direction; negative means better.
func worseBy(m metricSpec, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every sample of b reads better than every
// sample of a.
func allBetter(m metricSpec, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if worseBy(m, x, y) >= 0 {
				return false
			}
		}
	}
	return true
}

// verdict applies section 6 of the choosing-metrics guide: beyond the
// bound is worse or better; where the spread is wider than the bound
// the metric is unresolved, unless every new run beats every old one.
func verdict(m metricSpec, old, cur metricValue) string {
	if s := max(spread(old.Samples), spread(cur.Samples)); s > m.Bound {
		if allBetter(m, old.Samples, cur.Samples) {
			return "better"
		}
		return "unresolved"
	}
	switch w := worseBy(m, old.Value, cur.Value); {
	case w > m.Bound:
		return "worse"
	case w < -m.Bound:
		return "better"
	}
	return "same"
}

// compareFiles prints the comparison and reports whether anything
// regressed: a metric judged worse, or a higher share of failed
// operations.
func compareFiles(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	old, err := loadResults(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := loadResults(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "old: %s (commit %s, seed %d)\nnew: %s (commit %s, seed %d)\n\n",
		oldPath, old.Env.Commit, old.Seed, newPath, cur.Env.Commit, cur.Seed)
	fmt.Fprintf(w, "%-13s %-17s %14s %14s %9s  %-6s %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	var warnings []string
	for _, wl := range workloads {
		o, c := old.Workloads[wl.Name], cur.Workloads[wl.Name]
		if o == nil || c == nil || o.Untraced == nil || c.Untraced == nil {
			warnings = append(warnings, fmt.Sprintf("%s: missing from one of the files", wl.Name))
			continue
		}
		for _, m := range endToEnd {
			ov, cv := o.Untraced.Metrics[m.Name], c.Untraced.Metrics[m.Name]
			v := verdict(m, ov, cv)
			if v == "worse" {
				regressed = true
			}
			fmt.Fprintf(w, "%-13s %-17s %14.6g %14.6g %9.4f  %-6.2f %s\n",
				wl.Name, m.Name, ov.Value, cv.Value, cv.Value/ov.Value, m.Bound, v)
		}
		of := float64(o.Untraced.Failed) / float64(o.Untraced.Attempted)
		cf := float64(c.Untraced.Failed) / float64(c.Untraced.Attempted)
		if cf > of {
			regressed = true
			fmt.Fprintf(w, "%-13s failed share rose from %g to %g\n", wl.Name, of, cf)
		}
		for _, pair := range [][2]*runResult{{o.Untraced, c.Untraced}, {o.Traced, c.Traced}} {
			if pair[0] == nil || pair[1] == nil {
				continue
			}
			ob, _ := json.Marshal(pair[0].Checks)
			cb, _ := json.Marshal(pair[1].Checks)
			if string(ob) != string(cb) {
				warnings = append(warnings, fmt.Sprintf("%s: check values differ, so the workload's behaviour changed, not only its speed: %s -> %s", wl.Name, ob, cb))
			}
		}
	}
	fmt.Fprintln(w, "\nnew/old is the new value over the old value; the old value is the base.")
	for _, warn := range warnings {
		fmt.Fprintln(w, "WARNING:", warn)
	}
	return regressed, nil
}
