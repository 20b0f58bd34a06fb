// Command benchmark is the repository's benchmark: five workloads, the
// end-to-end metrics a user of the system sees, and — from a separate
// traced run — what each layer contributed. BENCHMARK.json at the
// repository root names the workloads and metrics; README.md beside
// this file explains them.
//
//	go run ./benchmark                          every workload, untraced and traced, in child processes
//	go run ./benchmark -workload ring-steady    one workload, both runs
//	go run ./benchmark -workload wire-rpc -seed 3 -seconds 10 -trace 0
//	                                            one run in this process; the last line is its JSON result
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark -spec                    print BENCHMARK.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	goruntime "runtime"
	"strconv"
)

// benchProcs is the GOMAXPROCS every measured process runs at.
const benchProcs = 2

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all)")
		seed     = flag.Uint64("seed", 1, "seed every input is generated from")
		secs     = flag.Float64("seconds", runSeconds, "how long one run measures")
		traced   = flag.Int("trace", -1, "0: measure end-to-end metrics in this process; 1: per-layer metrics; unset: both, each in a child process")
		out      = flag.String("out", "", "write the detailed results as JSON to this file")
		compare  = flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
		specOnly = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	switch {
	case *specOnly:
		os.Stdout.Write(specJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare old.json new.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *traced == 0 || *traced == 1:
		if err := runOne(*workload, *seed, *secs, *traced == 1, *out); err != nil {
			fatal(err)
		}
	case *traced == -1:
		if *out == "" {
			*out = "benchmark-results.json"
		}
		if err := runSuite(*workload, *seed, *secs, *out); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runOne measures one workload in this process and prints its result.
func runOne(name string, seed uint64, secs float64, traced bool, out string) error {
	if secs <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	goruntime.GOMAXPROCS(benchProcs)
	res, err := measure(name, seed, secs, traced)
	if err != nil {
		return err
	}
	if err := res.finish(); err != nil {
		return err
	}
	if out != "" {
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, b, 0o644); err != nil {
			return err
		}
	}
	return res.print(os.Stdout)
}

// measure dispatches to the workload's runner.
func measure(name string, seed uint64, secs float64, traced bool) (*runResult, error) {
	if name == wireRPC {
		plan := defaultWirePlan(secs)
		if traced {
			return runWireTraced(seed, plan)
		}
		return runWireUntraced(seed, plan)
	}
	cell, ok := findSimCell(name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
	}
	if traced {
		return runSimTraced(cell, seed)
	}
	return runSimUntraced(cell, seed, simPlan{coldReps: 3, minReps: 3, seconds: secs})
}

// suiteResults is the one results file a suite run writes.
type suiteResults struct {
	Env       envBlock                 `json:"env"`
	Seed      uint64                   `json:"seed"`
	Seconds   float64                  `json:"seconds"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	Untraced *runResult `json:"untraced"`
	Traced   *runResult `json:"traced"`
}

// runSuite runs every selected workload twice — untraced, then traced —
// each in a child process of its own, so no run inherits another's heap
// or high-water mark, and merges their results into one file.
func runSuite(only string, seed uint64, secs float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	results := suiteResults{Env: readEnv(), Seed: seed, Seconds: secs, Workloads: map[string]*workloadRuns{}}
	for _, w := range workloads {
		if only != "" && w.Name != only {
			continue
		}
		runs := &workloadRuns{}
		for flag, traced := range []bool{false, true} {
			part := fmt.Sprintf("%s.%s.%t.part", out, w.Name, traced)
			fmt.Printf("== %s (traced: %t)\n", w.Name, traced)
			cmd := exec.Command(self,
				"-workload", w.Name,
				"-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(secs, 'g', -1, 64),
				"-trace", strconv.Itoa(flag),
				"-out", part)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				os.Remove(part)
				return fmt.Errorf("%s (traced: %t): %w", w.Name, traced, err)
			}
			b, err := os.ReadFile(part)
			os.Remove(part)
			if err != nil {
				return err
			}
			res := &runResult{}
			if err := json.Unmarshal(b, res); err != nil {
				return fmt.Errorf("%s: %w", part, err)
			}
			if traced {
				runs.Traced = res
			} else {
				runs.Untraced = res
			}
		}
		results.Workloads[w.Name] = runs
	}
	if len(results.Workloads) == 0 {
		return fmt.Errorf("unknown workload %q", only)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(results); err != nil {
		return err
	}
	if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", out)
	return nil
}
