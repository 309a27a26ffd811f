package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles the test binary as vorx: runVorx re-executes it
// with "--" followed by vorx's own arguments, so each case sees the
// real main — its exit code, stdout and stderr.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--" {
		os.Args = append([]string{"vorx"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runVorx runs vorx with args and returns its exit code and output.
func runVorx(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"--"}, args...)...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("vorx %v: %v", args, err)
	}
	return code, out.String(), errb.String()
}

// writeSchedule writes a fault schedule to a temporary file.
func writeSchedule(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "part.sched")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// partSched is the partition/gray schedule CI's determinism job
// replays under the invariant checker.
const partSched = "2ms partition 1\n3ms gray node8 4.0 0.25\n6ms heal\n8ms ungray node8\n"

func TestExitCodesAndOutput(t *testing.T) {
	sched := writeSchedule(t, partSched)
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // substring stdout must hold ("" = no check)
		stderr string // substring stderr must hold ("" = no check)
	}{
		{name: "no command", args: nil, code: 2, stderr: "usage: vorx <command>"},
		{name: "unknown command", args: []string{"frobnicate"}, code: 2, stderr: "usage: vorx <command>"},
		{name: "removed bench command", args: []string{"bench", "-json"}, code: 2, stderr: "usage: vorx <command>"},
		{name: "unknown comm profile", args: []string{"ping", "-comm", "bogus"}, code: 2,
			stderr: `unknown -comm profile "bogus"`},
		{name: "unknown flag", args: []string{"chaos", "-bogus"}, code: 2, stderr: "flag provided but not defined"},
		{name: "verify partition schedule", args: []string{"chaos", "-verify", "-retries", "0", "-schedule", sched},
			code: 0, stdout: "verify: 0 violations"},
		{name: "partition refused when sharded", args: []string{"chaos", "-shards", "2", "-schedule", sched},
			code: 1, stderr: "fault: line 1 (partition at 2.000ms)"},
		{name: "missing schedule file", args: []string{"chaos", "-schedule", filepath.Join(t.TempDir(), "none")},
			code: 1, stderr: "vorx: open "},
		{name: "seeded sweep", args: []string{"chaos", "-sweep", "2"}, code: 0, stdout: "invariants: 0 violations"},
		{name: "shard sweep", args: []string{"chaos", "-shardsweep", "2"}, code: 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := runVorx(t, c.args...)
			if code != c.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, c.code, stdout, stderr)
			}
			if !strings.Contains(stdout, c.stdout) {
				t.Errorf("stdout lacks %q:\n%s", c.stdout, stdout)
			}
			if !strings.Contains(stderr, c.stderr) {
				t.Errorf("stderr lacks %q:\n%s", c.stderr, stderr)
			}
		})
	}
}

// TestShardsClampKeepsOutput: a serial-only demo asked for shards says
// so on stderr and prints exactly what the one-shard run prints.
func TestShardsClampKeepsOutput(t *testing.T) {
	code1, serial, quiet := runVorx(t, "links", "-shards", "1")
	code2, clamped, note := runVorx(t, "links", "-shards", "2")
	if code1 != 0 || code2 != 0 {
		t.Fatalf("exit codes %d and %d, want 0", code1, code2)
	}
	if quiet != "" {
		t.Errorf("-shards 1 wrote to stderr: %q", quiet)
	}
	if want := "vorx: -shards 2: per-link statistics come from the serial fabric; running the serial kernel"; !strings.Contains(note, want) {
		t.Errorf("stderr %q lacks the clamp note %q", note, want)
	}
	if clamped != serial {
		t.Errorf("-shards 2 stdout differs from -shards 1:\n%s\nvs\n%s", clamped, serial)
	}
}
