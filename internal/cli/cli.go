// Package cli is what the command-line tools (flowersim, flowerbench)
// share: a flag table whose entries are declared once — bound to the
// variable they set, defaulting to what it holds, and tagged, so "which
// flags apply here" and "which flags does a child process get" are asked
// of the declarations, not of hand-kept name lists — plus the
// fork-self-and-relay helper behind -spawn-local and -spawn-workers, the
// "-"-means-stdout writer, the -cpuprofile/-memprofile pair and Main,
// which runs a command's run function as the process.
package cli

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// Tag is a command's own classification of its flags (a bit set: the
// backends a flag applies to, whether child processes inherit it).
type Tag uint

// Flags is a flag.FlagSet that remembers a Tag per flag declared
// through Bind.
type Flags struct {
	*flag.FlagSet
	tags map[string]Tag
}

// NewFlags wraps fs.
func NewFlags(fs *flag.FlagSet) *Flags {
	return &Flags{FlagSet: fs, tags: map[string]Tag{}}
}

// Bind declares flag name on f, tagged t and bound to *p. The default
// is the value *p holds now, so it lives in exactly one place: the
// config the flag sets.
func Bind[T bool | int | uint64 | float64 | string | time.Duration](f *Flags, t Tag, p *T, name, usage string) {
	f.tags[name] = t
	switch p := any(p).(type) {
	case *bool:
		f.BoolVar(p, name, *p, usage)
	case *int:
		f.IntVar(p, name, *p, usage)
	case *uint64:
		f.Uint64Var(p, name, *p, usage)
	case *float64:
		f.Float64Var(p, name, *p, usage)
	case *string:
		f.StringVar(p, name, *p, usage)
	case *time.Duration:
		f.DurationVar(p, name, *p, usage)
	}
}

// Parse parses args. Its error, but for flag.ErrHelp, is a usage
// error: the command line's fault, already reported on the flag set's
// output.
func (f *Flags) Parse(args []string) error {
	err := f.FlagSet.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return usageError{err}
	}
	return err
}

type usageError struct{ error }

// VisitSet calls fn, in flag.Visit's lexical order, for every flag the
// command line set explicitly and whose tag match accepts.
func (f *Flags) VisitSet(match func(Tag) bool, fn func(*flag.Flag)) {
	f.Visit(func(fl *flag.Flag) {
		if match(f.tags[fl.Name]) {
			fn(fl)
		}
	})
}

// Args renders the explicitly-set flags whose tag match accepts as
// "-name=value" arguments, for a child process to repeat this one's
// choices. Working from the parsed set, not os.Args, makes every
// spelling flag.Parse accepts (-x v, --x v, -x=v) come out the same.
func (f *Flags) Args(match func(Tag) bool) []string {
	var args []string
	f.VisitSet(match, func(fl *flag.Flag) {
		args = append(args, "-"+fl.Name+"="+fl.Value.String())
	})
	return args
}

// Spawn starts one child of the running executable per argument list
// and relays each child's standard output and error, line by line, to
// out as "[<prefix><i>] line": one Write per line, from one goroutine
// per child. The returned wait blocks until every child has exited and
// its output is drained, and returns their exit errors, indexed like
// argv (nil: clean exit). If a child cannot be started, those already
// running are killed first.
func Spawn(prefix string, argv [][]string, out io.Writer) (wait func() []error, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(argv))
	var started []*exec.Cmd
	var wg sync.WaitGroup
	wait = func() []error {
		wg.Wait()
		return errs
	}
	for i, args := range argv {
		cmd := exec.Command(exe, args...)
		pipe, err := cmd.StdoutPipe()
		if err == nil {
			cmd.Stderr = cmd.Stdout // interleave, same prefix
			err = cmd.Start()
		}
		if err != nil {
			for _, c := range started {
				c.Process.Kill() // best effort: the child may already be gone
			}
			wait()
			return nil, fmt.Errorf("spawn %s%d: %w", prefix, i, err)
		}
		started = append(started, cmd)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := bufio.NewScanner(pipe)
			for sc.Scan() {
				fmt.Fprintf(out, "[%s%d] %s\n", prefix, i, sc.Text())
			}
			errs[i] = cmd.Wait() // only after the pipe is drained
		}()
	}
	return wait, nil
}

// WriteTo runs write against the file at path — created or truncated —
// or against stdout when path is "-".
func WriteTo(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Profiled runs body under a CPU profile written to cpuPath and, if
// body succeeds, then writes a heap profile to memPath — after a forced
// GC, so it shows live retention rather than garbage awaiting
// collection. An empty path skips that profile; "-" is standard output.
func Profiled(cpuPath, memPath string, body func() error) error {
	run := body
	if cpuPath != "" {
		run = func() error {
			return WriteTo(cpuPath, os.Stdout, func(w io.Writer) error {
				if err := pprof.StartCPUProfile(w); err != nil {
					return err
				}
				defer pprof.StopCPUProfile()
				return body()
			})
		}
	}
	if err := run(); err != nil || memPath == "" {
		return err
	}
	return WriteTo(memPath, os.Stdout, func(w io.Writer) error {
		runtime.GC()
		return pprof.WriteHeapProfile(w)
	})
}

// Warnf prints a diagnostic on stderr under the command's name.
func Warnf(stderr io.Writer, format string, args ...any) {
	fmt.Fprintf(stderr, filepath.Base(os.Args[0])+": "+format+"\n", args...)
}

// Main runs a command's run function on this process's arguments and
// standard streams, and exits with its outcome: 0 on success or -h, 2
// on a usage error (Flags.Parse has reported it), else 1 with the error
// reported like Warnf.
func Main(run func(args []string, stdout, stderr io.Writer) error) {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	var usage usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return
	case errors.As(err, &usage):
		os.Exit(2)
	}
	Warnf(os.Stderr, "%v", err)
	os.Exit(1)
}
