package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// pinnedOutputs is the SHA-256 over every pinCases run's exit code,
// stdout and -record journal bytes. A change that moves it changes what
// the CLI prints, records or exits with for some flag combination.
const pinnedOutputs = "a36e76ecb0376617695c6bdf8ad48823692b4714da818bd6a78e7fef9ef7cb7d"

// pinCases are the pinned command lines: each -detect kind the CLI
// has always accepted, crossed with the static filter, witness seeding
// and a fault plan, on scan and psum; plus the whole-suite summary.
// Combinations the CLI rejects are pinned too, by their exit code.
func pinCases() [][]string {
	var cases [][]string
	for _, bench := range []string{"scan", "psum"} {
		for _, det := range []string{"off", "shared", "global", "shared+global"} {
			for _, mode := range [][]string{
				nil,
				{"-static-filter"},
				{"-witness-seed"},
				{"-fault-plan", "queue:cap=16,drain=1", "-seed", "7"},
			} {
				args := append([]string{"-bench", bench, "-small-gpu", "-detect", det, "-record", "@journal"}, mode...)
				cases = append(cases, args)
			}
		}
	}
	return append(cases, []string{"-all-benches", "-small-gpu", "-shared-gran", "4"})
}

// subcommandPinCases are the subcommand command lines pinned by
// pinnedSubcommandOutputs, kept apart so that pinnedOutputs stays the
// run-mode pin. Each case is a sequence of command lines run in one
// directory: the replay reads the journal the run before it recorded.
func subcommandPinCases() [][][]string {
	return [][][]string{
		{{"lint", "-all", "-json", "-sites"}},
		{{"lint", "-bench", "scan", "-small-gpu", "-sites", "-json"}},
		{{"lint", "-bench", "psum", "-small-gpu", "-sites", "-json"}},
		{{"lint", "-disasm", "-small-gpu", "-bench", "reduce", "-inject", "reduce.fence0"}},
		{{"bench", "-table", "1"}},
		{{"-bench", "scan", "-small-gpu", "-record", "@journal"}, {"replay", "-journal", "@journal"}},
		{{"chaos", "-list"}},
		{{"nosuch"}},
	}
}

// pinnedSubcommandOutputs is the SHA-256 over subcommandPinCases, as
// pinnedOutputs is over pinCases.
const pinnedSubcommandOutputs = "b6dbfaa35a425a5501bce7f27f99d8d2c4d0453acdb0def779b0bb283ee35948"

// tracePinCases are the -trace command lines pinned by
// pinnedTraceOutputs: every -detect kind on scan, reduce and hist,
// a fault plan, witness seeding, a traced run that records a journal
// too, and one run on the Table I device.
func tracePinCases() [][]string {
	var cases [][]string
	for _, bench := range []string{"scan", "reduce", "hist"} {
		for _, det := range []string{"off", "shared", "global", "shared+global", "shared-shadow-in-global", "sw-haccrg", "grace-addr"} {
			cases = append(cases, []string{"-bench", bench, "-small-gpu", "-detect", det, "-trace"})
		}
	}
	return append(cases,
		[]string{"-bench", "scan", "-small-gpu", "-trace", "-fault-plan", "queue:cap=16,drain=1", "-seed", "7"},
		[]string{"-bench", "scan", "-small-gpu", "-trace", "-witness-seed"},
		[]string{"-bench", "reduce", "-small-gpu", "-inject", "reduce.fence0", "-trace", "-record", "@journal"},
		[]string{"-bench", "psum", "-trace"},
	)
}

// pinnedTraceOutputs is the SHA-256 over tracePinCases, as
// pinnedOutputs is over pinCases.
const pinnedTraceOutputs = "6c3d77e0889695f85c5fcf4e1a58aac67180b3edc1d3e092dd1d4d9892ba43e9"

// runPinCase re-executes the test binary as the CLI on args (the
// "@journal" argument names a journal path in dir) and returns the
// bytes the pin hashes: the exit code, stdout and the journal.
func runPinCase(dir string, args []string) ([]byte, error) {
	journal := filepath.Join(dir, "run.jnl")
	argv := make([]string, len(args))
	for i, a := range args {
		if a == "@journal" {
			a = journal
		}
		argv[i] = a
	}
	cmd := helperCommand(argv...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			return nil, err
		}
		code = exit.ExitCode()
	}
	jnl, err := os.ReadFile(journal)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "args %q\nexit %d\nstdout %d\n", args, code, stdout.Len())
	b.Write(stdout.Bytes())
	fmt.Fprintf(&b, "journal %d\n", len(jnl))
	b.Write(jnl)
	return b.Bytes(), nil
}

// hashPinCases runs each case's command lines in a fresh directory,
// fanning cases out over a few worker processes, and hashes their
// outputs in case order.
func hashPinCases(t *testing.T, cases [][][]string) string {
	t.Helper()
	outs := make([][][]byte, len(cases))
	errs := make([]error, len(cases))
	dirs := make([]string, len(cases))
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				for _, args := range cases[i] {
					out, err := runPinCase(dirs[i], args)
					if err != nil {
						errs[i] = err
						break
					}
					outs[i] = append(outs[i], out)
				}
			}
		}()
	}
	for i := range cases {
		next <- i
	}
	close(next)
	wg.Wait()
	h := sha256.New()
	for i, lines := range cases {
		if errs[i] != nil {
			t.Fatalf("haccrg %s: %v", strings.Join(lines[len(outs[i])], " "), errs[i])
		}
		for j, out := range outs[i] {
			sum := sha256.Sum256(out)
			t.Logf("%x  %s", sum[:6], strings.Join(lines[j], " "))
			h.Write(out)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCLIOutputsPinned hashes run mode's observable outputs over
// pinCases into one constant.
func TestCLIOutputsPinned(t *testing.T) {
	var cases [][][]string
	for _, args := range pinCases() {
		cases = append(cases, [][]string{args})
	}
	if got := hashPinCases(t, cases); got != pinnedOutputs {
		t.Fatalf("CLI outputs hash to %s, pinned %s", got, pinnedOutputs)
	}
}

// TestTraceOutputsPinned hashes -trace's timelines, with the rest of
// each run's outputs, over tracePinCases into one constant.
func TestTraceOutputsPinned(t *testing.T) {
	var cases [][][]string
	for _, args := range tracePinCases() {
		cases = append(cases, [][]string{args})
	}
	if got := hashPinCases(t, cases); got != pinnedTraceOutputs {
		t.Fatalf("-trace outputs hash to %s, pinned %s", got, pinnedTraceOutputs)
	}
}

// TestSubcommandOutputsPinned hashes the subcommands' observable
// outputs over subcommandPinCases into one constant.
func TestSubcommandOutputsPinned(t *testing.T) {
	if got := hashPinCases(t, subcommandPinCases()); got != pinnedSubcommandOutputs {
		t.Fatalf("subcommand outputs hash to %s, pinned %s", got, pinnedSubcommandOutputs)
	}
}

// TestSubcommandGoldens: the shipped subcommands print the bytes of
// the goldens the analyzer and experiment packages pin.
func TestSubcommandGoldens(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"../../internal/staticrace/testdata/lint-all-sites.json", []string{"lint", "-all", "-json", "-sites"}},
		{"../../internal/harness/testdata/bench-all-scale1.txt", []string{"bench", "-all", "-scale", "1"}},
	} {
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := runHelper(t, c.args...)
		if code != exitOK {
			t.Errorf("haccrg %s: exit %d: %s", strings.Join(c.args, " "), code, stderr)
		}
		if stdout != string(want) {
			t.Errorf("haccrg %s: output (%d bytes) differs from %s (%d bytes)",
				strings.Join(c.args, " "), len(stdout), c.golden, len(want))
		}
	}
}

// TestUnknownInjectSiteIsUsage: an -inject ID that names no site of the
// benchmark exits 2 and lists the benchmark's sites, instead of running
// as if nothing were injected.
func TestUnknownInjectSiteIsUsage(t *testing.T) {
	for _, id := range []string{"reduce.fenc0", "psum.fence0"} {
		cmd := helperCommand("-bench", "reduce", "-small-gpu", "-inject", id)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-inject %s: %v, want exit 2", id, err)
		}
		if !strings.Contains(stderr.String(), "reduce.fence0") {
			t.Errorf("-inject %s: stderr %q does not list reduce's sites", id, stderr.String())
		}
	}
}

// TestUnhonouredOutputFlagsAreUsage: a run-output flag that the chosen
// mode would ignore exits 2 and names the flags, before anything runs:
// no table, no journal, no daemon contact. So does -json under a
// detector kind with no race report to print.
func TestUnhonouredOutputFlagsAreUsage(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "r.jnl")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-all-benches", "-small-gpu", "-record", journal, "-verify", "-json"},
			"-all-benches cannot honour -json, -record, -verify"},
		{[]string{"-all-benches", "-small-gpu", "-trace"},
			"-all-benches cannot honour -trace"},
		{[]string{"-bench", "scan", "-small-gpu", "-server-url", "http://127.0.0.1:1", "-json", "-record", journal},
			"-server-url cannot honour -json, -record"},
		{[]string{"-bench", "scan", "-small-gpu", "-json", "-trace", "-record", journal, "-verify"},
			"-json cannot honour -trace"},
		{[]string{"-bench", "scan", "-small-gpu", "-detect", "grace-addr", "-json", "-record", journal},
			"-json needs a detector with a race report (off and grace-addr have none)"},
		{[]string{"-bench", "scan", "-small-gpu", "-detect", "off", "-json", "-record", journal},
			"-json needs a detector with a race report (off and grace-addr have none)"},
	}
	for _, c := range cases {
		cmd := helperCommand(c.args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		name := strings.Join(c.args, " ")
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("haccrg %s: %v, want exit 2", name, err)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("haccrg %s: stderr %q, want %q", name, stderr.String(), c.want)
		}
		if stdout.Len() > 0 {
			t.Errorf("haccrg %s: printed %q", name, stdout.String())
		}
		if _, err := os.Stat(journal); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("haccrg %s: journal written (%v)", name, err)
		}
	}
}
