// Command tracediff compares two per-query trace CSVs (written by
// flowersim -trace-csv) and reports structural differences: record
// counts, per-kind hop mixes, mean route hops, and — for query numbers
// present in both — whether each query took the same node path.
//
// Its intended use is checking that a socket run of a cell routes the
// same way the simulator says it should:
//
//	flowersim -p 50 -hours 1 -trace-csv sim.csv
//	flowersim -backend socket -spawn-local 2 -population 50 \
//	    -horizon 5s -trace-csv sock.csv
//	tracediff sim.csv sock.csv
//
// Exit status is 0 when the traces are structurally identical and 1
// when they differ (2 on usage/IO errors), so it slots into CI.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"flowercdn/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run compares the trace CSVs that args name, reports on stdout, and
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: tracediff <a.csv> <b.csv>")
		return 2
	}
	var recs [2][]*trace.Record
	for i, path := range args {
		f, err := os.Open(path)
		if err == nil {
			recs[i], err = trace.ReadCSV(f)
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(stderr, "tracediff: %s: %v\n", path, err)
			return 2
		}
	}
	labelA, labelB := filepath.Base(args[0]), filepath.Base(args[1])
	if labelA == labelB {
		labelA, labelB = args[0], args[1]
	}
	rep := trace.Diff(labelA, recs[0], labelB, recs[1])
	fmt.Fprint(stdout, rep.Format())
	if len(rep.Warnings) > 0 {
		return 1
	}
	return 0
}
