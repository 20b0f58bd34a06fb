package cli

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMain doubles as the child process of TestSpawnRelaysAndCollects
// (Spawn forks the running executable, which here is the test binary)
// and as the command TestMainExitStatus runs.
func TestMain(m *testing.M) {
	if os.Getenv("CLI_TEST_MAIN") != "" {
		Main(func(args []string, stdout, stderr io.Writer) error {
			f := NewFlags(flag.NewFlagSet("t", flag.ContinueOnError))
			f.SetOutput(stderr)
			fail := f.Bool("fail", false, "")
			if err := f.Parse(args); err != nil {
				return err
			}
			if *fail {
				return errors.New("boom")
			}
			fmt.Fprintln(stdout, "ran")
			return nil
		})
		os.Exit(0)
	}
	if os.Getenv("CLI_TEST_CHILD") != "" {
		fmt.Println("out", os.Args[1])
		fmt.Fprintln(os.Stderr, "err", os.Args[1])
		if os.Args[1] == "fail" {
			os.Exit(3)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// lockedBuffer is a bytes.Buffer safe for the concurrent writes of
// Spawn's relays.
type lockedBuffer struct {
	mu sync.Mutex
	bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.Buffer.Write(p)
}

func TestSpawnRelaysAndCollects(t *testing.T) {
	t.Setenv("CLI_TEST_CHILD", "1")
	var buf lockedBuffer
	wait, err := Spawn("c", [][]string{{"ok"}, {"fail"}}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	errs := wait()
	out := buf.String()
	for _, want := range []string{"[c0] out ok\n", "[c0] err ok\n", "[c1] out fail\n", "[c1] err fail\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("relayed output lacks %q:\n%s", want, out)
		}
	}
	if len(errs) != 2 || errs[0] != nil {
		t.Fatalf("exit errors = %v, want [nil, exit status 3]", errs)
	}
	var exit *exec.ExitError
	if !errors.As(errs[1], &exit) || exit.ExitCode() != 3 {
		t.Errorf("child 1 error = %v, want exit status 3", errs[1])
	}
}

// TestArgsFromParsedFlags pins that child arguments come from the parsed
// flag set — every spelling flag.Parse accepts selects the same flag —
// and that defaults come from the bound variables.
func TestArgsFromParsedFlags(t *testing.T) {
	const keep, drop Tag = 1, 2
	var (
		name = "dflt"
		n    = 7
		on   bool
		d    = time.Second
		out  string
	)
	f := NewFlags(flag.NewFlagSet("t", flag.ContinueOnError))
	Bind(f, keep, &name, "name", "")
	Bind(f, keep, &n, "n", "")
	Bind(f, keep, &on, "on", "")
	Bind(f, keep, &d, "d", "")
	Bind(f, drop, &out, "out", "")
	if got := f.Lookup("n").DefValue; got != "7" {
		t.Errorf("default of -n = %q, want the bound variable's 7", got)
	}
	if err := f.Parse([]string{"--out", "x", "-on", "--n=9", "-d", "2s"}); err != nil {
		t.Fatal(err)
	}
	got := f.Args(func(t Tag) bool { return t == keep })
	if want := []string{"-d=2s", "-n=9", "-on=true"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Args = %v, want %v (set flags only, none tagged drop)", got, want)
	}
}

func TestWriteTo(t *testing.T) {
	write := func(w io.Writer) error {
		_, err := io.WriteString(w, "payload\n")
		return err
	}
	path := filepath.Join(t.TempDir(), "a.csv")
	var stdout bytes.Buffer
	if err := WriteTo(path, &stdout, write); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "payload\n" {
		t.Errorf("file holds %q", b)
	}
	if stdout.Len() != 0 {
		t.Errorf("a file write reached stdout: %q", stdout.String())
	}
	if err := WriteTo("-", &stdout, write); err != nil || stdout.String() != "payload\n" {
		t.Errorf(`"-" wrote %q to stdout, err %v`, stdout.String(), err)
	}
	if err := WriteTo(filepath.Join(t.TempDir(), "no", "dir"), &stdout, write); err == nil {
		t.Error("unwritable path: no error")
	}
}

func TestProfiledWritesBothFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	ran := false
	if err := Profiled(cpu, mem, func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("err %v, body ran %v", err, ran)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", p, err)
		}
	}
	boom := errors.New("boom")
	if err := Profiled("", filepath.Join(dir, "skipped.out"), func() error { return boom }); err != boom {
		t.Errorf("body's error = %v, want it returned as is", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "skipped.out")); err == nil {
		t.Error("heap profile written after a failed body")
	}
	if err := Profiled(filepath.Join(dir, "no", "dir"), "", func() error { return nil }); err == nil {
		t.Error("unwritable cpu profile path: no error")
	}
}

// TestMainExitStatus runs a command through Main in a child process:
// 0 on success or -h, 2 on a command line that does not parse, 1 with
// the error on standard error when the command fails.
func TestMainExitStatus(t *testing.T) {
	t.Setenv("CLI_TEST_MAIN", "1")
	for _, tc := range []struct {
		args           []string
		code           int
		stdout, stderr string
	}{
		{nil, 0, "ran\n", ""},
		{[]string{"-h"}, 0, "", "Usage of t:"},
		{[]string{"-bogus"}, 2, "", "flag provided but not defined: -bogus"},
		{[]string{"-fail"}, 1, "", ": boom\n"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		code := 0
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatal(err)
			}
			code = exit.ExitCode()
		}
		if code != tc.code {
			t.Errorf("%v: exit status %d, want %d", tc.args, code, tc.code)
		}
		if stdout.String() != tc.stdout || !strings.Contains(stderr.String(), tc.stderr) || (tc.stderr == "") != (stderr.Len() == 0) {
			t.Errorf("%v: stdout %q, stderr %q; want %q and %q", tc.args, stdout.String(), stderr.String(), tc.stdout, tc.stderr)
		}
	}
}
