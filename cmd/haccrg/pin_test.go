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

// TestMain doubles as the CLI when re-executed with the helper
// variable set (the haccrg-server tests use the same trick), so the pin
// below drives the real flag parsing and exit codes without a separate
// build step.
func TestMain(m *testing.M) {
	if os.Getenv("HACCRG_CLI_HELPER") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// pinnedOutputs is the SHA-256 over every pinCases run's exit code,
// stdout and -record journal bytes. A change that moves it changes what
// the CLI prints, records or exits with for some flag combination.
const pinnedOutputs = "944ec701cc59b39c4190e26ef6779b4e21cbbb8f478396a52fee891132f73dce"

// pinCases are the pinned command lines: each -detect kind the CLI
// has always accepted, crossed with the static filter, witness seeding
// and a fault plan, on scan and psum; plus the static report and the
// whole-suite summary. Combinations the CLI rejects are pinned too, by
// their exit code.
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
		cases = append(cases, []string{"-bench", bench, "-small-gpu", "-static-report", "-json"})
	}
	return append(cases, []string{"-all-benches", "-small-gpu", "-shared-gran", "4"})
}

// runPinCase re-executes the test binary as the CLI on args (the
// "@journal" argument names a fresh journal path in dir) and returns
// the bytes the pin hashes: the exit code, stdout and the journal.
func runPinCase(dir string, args []string) ([]byte, error) {
	journal := filepath.Join(dir, "run.jnl")
	argv := make([]string, len(args))
	for i, a := range args {
		if a == "@journal" {
			a = journal
		}
		argv[i] = a
	}
	cmd := exec.Command(os.Args[0], argv...)
	cmd.Env = append(os.Environ(), "HACCRG_CLI_HELPER=1")
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

// TestCLIOutputsPinned hashes the CLI's observable outputs over
// pinCases into one constant. Runs fan out over a few worker processes
// and are hashed in case order.
func TestCLIOutputsPinned(t *testing.T) {
	cases := pinCases()
	outs := make([][]byte, len(cases))
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
				outs[i], errs[i] = runPinCase(dirs[i], cases[i])
			}
		}()
	}
	for i := range cases {
		next <- i
	}
	close(next)
	wg.Wait()
	h := sha256.New()
	for i, out := range outs {
		if errs[i] != nil {
			t.Fatalf("haccrg %s: %v", strings.Join(cases[i], " "), errs[i])
		}
		sum := sha256.Sum256(out)
		t.Logf("%x  %s", sum[:6], strings.Join(cases[i], " "))
		h.Write(out)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedOutputs {
		t.Fatalf("CLI outputs hash to %s, pinned %s", got, pinnedOutputs)
	}
}

// TestUnknownInjectSiteIsUsage: an -inject ID that names no site of the
// benchmark exits 2 and lists the benchmark's sites, instead of running
// as if nothing were injected.
func TestUnknownInjectSiteIsUsage(t *testing.T) {
	for _, id := range []string{"reduce.fenc0", "psum.fence0"} {
		cmd := exec.Command(os.Args[0], "-bench", "reduce", "-small-gpu", "-inject", id)
		cmd.Env = append(os.Environ(), "HACCRG_CLI_HELPER=1")
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
