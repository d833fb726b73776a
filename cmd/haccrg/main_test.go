package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"haccrg"
)

// TestMain doubles as the CLI when re-executed with the helper
// variable set, so the tests drive the real flag parsing, subcommand
// dispatch and exit codes — and boot, signal and restart real
// `haccrg serve` daemons — without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("HACCRG_CLI_HELPER") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// helperCommand returns a command that re-executes the test binary as
// `haccrg args...`.
func helperCommand(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HACCRG_CLI_HELPER=1")
	return cmd
}

// runHelper runs `haccrg args...` to completion and returns its exit
// code, stdout and stderr.
func runHelper(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := helperCommand(args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("haccrg %s: %v", strings.Join(args, " "), err)
		}
		code = exit.ExitCode()
	}
	return code, out.String(), errOut.String()
}

// TestErrLineSinglePrefix: every error line carries exactly one
// "haccrg: " prefix, whether or not the error came from the facade.
func TestErrLineSinglePrefix(t *testing.T) {
	_, facadeErr := haccrg.RunBenchmark("nosuch", haccrg.RunOptions{})
	if facadeErr == nil {
		t.Fatal("unknown benchmark ran")
	}
	cases := []struct {
		what string
		err  error
		want string
	}{
		{"", facadeErr, "haccrg: unknown benchmark \"nosuch\""},
		{"psum", facadeErr, "haccrg: psum: unknown benchmark \"nosuch\""},
		{"", errors.New("harness: static analysis of psum: boom"), "haccrg: harness: static analysis of psum: boom"},
		{"-record", errors.New("journal: create x.jnl: denied"), "haccrg: -record: journal: create x.jnl: denied"},
	}
	for _, c := range cases {
		got := errLine(c.what, c.err)
		if !strings.HasPrefix(got, c.want) {
			t.Errorf("errLine(%q, %q) = %q, want prefix %q", c.what, c.err, got, c.want)
		}
		if n := strings.Count(got, "haccrg: "); n != 1 {
			t.Errorf("errLine(%q, %q) = %q carries %d prefixes", c.what, c.err, got, n)
		}
	}
}

// TestGranularityIsUsage: the run-spec binder validates the tracking
// granularities for run mode and lint alike — 0 or a non-power-of-two
// exits 2 with the offending flag named, before anything runs — and
// accepts any positive power of two.
func TestGranularityIsUsage(t *testing.T) {
	cases := []struct {
		args []string
		want string // "" = accepted
	}{
		{[]string{"-bench", "scan", "-small-gpu", "-shared-gran", "0"}, "-shared-gran 0 is not a power of two"},
		{[]string{"-bench", "scan", "-small-gpu", "-shared-gran", "3"}, "-shared-gran 3 is not a power of two"},
		{[]string{"-bench", "scan", "-small-gpu", "-global-gran", "0"}, "-global-gran 0 is not a power of two"},
		{[]string{"-bench", "scan", "-small-gpu", "-global-gran", "-4"}, "-global-gran -4 is not a power of two"},
		{[]string{"lint", "-bench", "scan", "-shared-gran", "0"}, "-shared-gran 0 is not a power of two"},
		{[]string{"lint", "-bench", "scan", "-shared-gran", "3"}, "-shared-gran 3 is not a power of two"},
		{[]string{"lint", "-all", "-global-gran", "12"}, "-global-gran 12 is not a power of two"},
		{[]string{"lint", "-bench", "scan", "-shared-gran", "4", "-global-gran", "8"}, ""},
		{[]string{"lint", "-bench", "psum", "-small-gpu", "-shared-gran", "32"}, ""},
	}
	for _, c := range cases {
		name := strings.Join(c.args, " ")
		code, stdout, stderr := runHelper(t, c.args...)
		if c.want == "" {
			if code == exitUsage || code == exitError {
				t.Errorf("haccrg %s: exit %d (%s), want it to run", name, code, stderr)
			}
			continue
		}
		if code != exitUsage {
			t.Errorf("haccrg %s: exit %d, want %d", name, code, exitUsage)
		}
		if !strings.Contains(stderr, c.want) {
			t.Errorf("haccrg %s: stderr %q, want %q", name, stderr, c.want)
		}
		if stdout != "" {
			t.Errorf("haccrg %s: printed %q", name, stdout)
		}
	}
}

// TestNegativeLimitsRefused: a negative scale, cycle budget or timeout
// is refused before anything runs, by the same check the daemon's
// admission makes: no stats (bench prints only the experiment's
// title), and exit 1, since it names nothing that does not exist.
func TestNegativeLimitsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "scan", "-small-gpu", "-scale", "-1"},
		{"-bench", "scan", "-small-gpu", "-max-cycles", "-5"},
		{"-bench", "scan", "-small-gpu", "-timeout", "-1s"},
		{"-all-benches", "-small-gpu", "-scale", "-1"},
		{"lint", "-bench", "scan", "-scale", "-1"},
		{"bench", "-table", "2", "-scale", "-1"},
		{"bench", "-table", "4", "-scale", "-1"},
	} {
		name := strings.Join(args, " ")
		code, stdout, stderr := runHelper(t, args...)
		if code != exitError {
			t.Errorf("haccrg %s: exit %d, want %d (%s)", name, code, exitError, stderr)
		}
		if !strings.Contains(stderr, "is negative") {
			t.Errorf("haccrg %s: stderr %q does not name the negative limit", name, stderr)
		}
		out := stdout
		if args[0] == "bench" {
			_, out, _ = strings.Cut(stdout, " ====\n") // after the title
		}
		if out != "" {
			t.Errorf("haccrg %s: printed %q", name, stdout)
		}
	}
}

// TestUnknownSubcommandIsUsage: a first argument that is neither a flag
// nor a subcommand exits 2 and lists the subcommands.
func TestUnknownSubcommandIsUsage(t *testing.T) {
	code, stdout, stderr := runHelper(t, "disasm", "-bench", "reduce")
	if code != exitUsage {
		t.Errorf("exit %d, want %d", code, exitUsage)
	}
	if !strings.Contains(stderr, `unknown subcommand "disasm" (have bench, lint, replay, chaos, serve)`) {
		t.Errorf("stderr %q does not list the subcommands", stderr)
	}
	if stdout != "" {
		t.Errorf("printed %q", stdout)
	}
}

// TestRemovedFlagsAreUsage: flags no caller set are gone from their
// modes, so setting one exits 2 and names it, before anything runs.
func TestRemovedFlagsAreUsage(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-static-report", []string{"-bench", "scan", "-small-gpu", "-static-report"}},
		{"-max-races", []string{"-bench", "scan", "-small-gpu", "-max-races", "3"}},
		{"-warp-aware", []string{"lint", "-bench", "scan", "-small-gpu", "-warp-aware=false"}},
		{"-context", []string{"lint", "-bench", "scan", "-small-gpu", "-context", "4"}},
		{"-fault-plan", []string{"bench", "-table", "1", "-fault-plan", "queue:cap=16,drain=1"}},
		{"-degradation", []string{"bench", "-table", "1", "-degradation", "reinit"}},
	} {
		name := strings.Join(c.args, " ")
		code, stdout, stderr := runHelper(t, c.args...)
		if code != exitUsage {
			t.Errorf("haccrg %s: exit %d, want %d", name, code, exitUsage)
		}
		if !strings.Contains(stderr, "flag provided but not defined: "+c.flag) {
			t.Errorf("haccrg %s: stderr does not name %s:\n%s", name, c.flag, stderr)
		}
		if stdout != "" {
			t.Errorf("haccrg %s: printed %d bytes", name, len(stdout))
		}
	}
}

// TestUsageGolden: every mode's -h output is testdata/usage.txt, so a
// flag added, removed or re-described shows in the diff. Regenerate it
// with
//
//	for m in "" bench lint replay chaos serve; do
//		echo "\$ haccrg${m:+ $m} -h"; go run ./cmd/haccrg $m -h 2>&1
//	done > cmd/haccrg/testdata/usage.txt
func TestUsageGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/usage.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, args := range [][]string{{"-h"}, {"bench", "-h"}, {"lint", "-h"}, {"replay", "-h"}, {"chaos", "-h"}, {"serve", "-h"}} {
		code, stdout, stderr := runHelper(t, args...)
		if code != exitOK || stdout != "" {
			t.Errorf("haccrg %s: exit %d, stdout %q", strings.Join(args, " "), code, stdout)
		}
		fmt.Fprintf(&got, "$ haccrg %s\n%s", strings.Join(args, " "), stderr)
	}
	if got.String() != string(want) {
		gl, wl := strings.SplitAfter(got.String(), "\n"), strings.SplitAfter(string(want), "\n")
		i := 0
		for i < min(len(gl), len(wl)) && gl[i] == wl[i] {
			i++
		}
		t.Errorf("usage differs from testdata/usage.txt from line %d on; it now reads:\n%s", i+1, strings.Join(gl[i:], ""))
	}
}

// TestGuardRailAbortExits4: a run a guard rail aborts exits 4 in every
// mode that simulates — one run, the suite, and an experiment sweep.
func TestGuardRailAbortExits4(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "scan", "-small-gpu", "-max-cycles", "200"},
		{"-all-benches", "-small-gpu", "-max-cycles", "200"},
		{"bench", "-table", "2", "-scale", "1", "-max-cycles", "100"},
	} {
		code, _, stderr := runHelper(t, args...)
		if code != exitAbort {
			t.Errorf("haccrg %s: exit %d, want %d (%s)", strings.Join(args, " "), code, exitAbort, stderr)
		}
		if !strings.Contains(stderr, "cycle-budget") {
			t.Errorf("haccrg %s: stderr %q does not name the cycle budget", strings.Join(args, " "), stderr)
		}
	}
}

// TestBenchSeedLeavesSweepKeys: bench's -seed feeds only the fault
// study, so a sweep that differs from a manifest's only in -seed
// resumes every run from it instead of re-simulating and appending.
func TestBenchSeedLeavesSweepKeys(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "sweep.jnl")
	code, first, stderr := runHelper(t, "bench", "-exp", "syncid", "-seed", "9", "-manifest", manifest)
	if code != exitOK {
		t.Fatalf("seeded sweep: exit %d (%s)", code, stderr)
	}
	n := manifestRecords(manifest)
	code, resumed, stderr := runHelper(t, "bench", "-exp", "syncid", "-manifest", manifest, "-resume")
	if code != exitOK {
		t.Fatalf("resumed sweep: exit %d (%s)", code, stderr)
	}
	if got := manifestRecords(manifest); n == 0 || got != n {
		t.Errorf("manifest holds %d record(s) after the seedless resume, %d before", got, n)
	}
	if resumed != first {
		t.Errorf("resumed sweep printed\n%s\nthe seeded one\n%s", resumed, first)
	}
}

// TestTraceUnderDetectOff: -trace prints the timeline of a run without
// detection too (its kernel and barrier lines; there are no races).
func TestTraceUnderDetectOff(t *testing.T) {
	code, stdout, stderr := runHelper(t, "-bench", "scan", "-small-gpu", "-detect", "off", "-trace")
	if code != exitOK {
		t.Fatalf("exit %d, want %d (%s)", code, exitOK, stderr)
	}
	if !strings.Contains(stdout, "kernel-start") || !strings.Contains(stdout, "barrier") {
		t.Errorf("no timeline printed:\n%s", stdout)
	}
}

// TestReplayFaultPlanNeedsHealth: a journal recorded under a fault plan
// is refused under off and grace-addr, with exit 1 and the message the
// live run is refused with, naming the kind; under sw-haccrg and under
// the recorded kind it replays to the recorded verdict.
func TestReplayFaultPlanNeedsHealth(t *testing.T) {
	jnl := filepath.Join(t.TempDir(), "hf.jnl")
	if code, _, stderr := runHelper(t, "-bench", "hist", "-small-gpu", "-fault-plan", "queue:cap=1,drain=1", "-record", jnl); code != exitFound {
		t.Fatalf("recording run: exit %d, want %d (%s)", code, exitFound, stderr)
	}
	for _, kind := range []string{"off", "grace-addr"} {
		code, _, stderr := runHelper(t, "replay", "-journal", jnl, "-detect", kind)
		want := `haccrg: a fault plan needs a detector with a health report, got "` + kind + `"`
		if code != exitError || !strings.Contains(stderr, want) {
			t.Errorf("replay under %s: exit %d, stderr %q; want exit %d and %q", kind, code, stderr, exitError, want)
		}
	}
	for _, extra := range [][]string{nil, {"-detect", "sw-haccrg"}} {
		code, stdout, stderr := runHelper(t, append([]string{"replay", "-journal", jnl}, extra...)...)
		if code != exitOK || !strings.Contains(stdout, "\nMATCH") {
			t.Errorf("replay %v: exit %d (%s), want a MATCH:\n%s", extra, code, stderr, stdout)
		}
	}
}
