// Command haccrg is the simulator's one binary. Without a subcommand
// it runs one benchmark (or the whole suite) on the simulated GPU under
// a race-detection configuration and reports the races and execution
// statistics; its subcommands regenerate the paper's evaluation, lint
// kernels statically, replay recorded journals, run chaos campaigns and
// serve race detection as a daemon.
//
// Usage:
//
//	haccrg -bench reduce -detect shared+global
//	haccrg -bench scan -single-block -verify
//	haccrg -bench psum -inject psum.fence0
//	haccrg -list
//	haccrg bench -all                       # every table and figure
//	haccrg lint -bench psum -sites          # static analysis, no simulation
//	haccrg lint -disasm -bench reduce       # kernel disassembly
//	haccrg replay -journal run.jnl          # offline replay of a -record journal
//	haccrg chaos -seed 7 -steps 1           # seeded chaos campaign
//	haccrg serve -data ./haccrg-data        # HTTP daemon
//
// Every mode exits with the same codes: 0 clean, 1 error, 2 usage,
// 3 races, static findings, a replay mismatch or a chaos violation,
// 4 a run aborted by a guard rail (-max-cycles, -timeout), 5 interrupted
// by SIGINT or SIGTERM (or a daemon drained with resumable state).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"haccrg"
	"haccrg/internal/harness"
	"haccrg/internal/service"
)

// Exit codes, shared by every mode.
const (
	exitOK          = 0
	exitError       = 1
	exitUsage       = 2
	exitFound       = 3 // races, static findings, replay mismatch, chaos violation
	exitAbort       = 4 // guard-rail trip: a *HangError
	exitInterrupted = 5 // SIGINT/SIGTERM, or a drain that left resumable state
)

// subcommands are the modes besides run mode, in the order usage lists
// them. Each parses its own flags and returns the exit code.
var subcommands = []struct {
	name string
	main func(args []string) int
}{
	{"bench", benchMain},
	{"lint", lintMain},
	{"replay", replayMain},
	{"chaos", chaosMain},
	{"serve", serveMain},
}

func main() {
	os.Exit(dispatch(os.Args[1:]))
}

// dispatch runs the subcommand args name, or run mode when args starts
// with a flag (or is empty).
func dispatch(args []string) int {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return runMain(args)
	}
	for _, sc := range subcommands {
		if sc.name == args[0] {
			return sc.main(args[1:])
		}
	}
	return fail(exitUsage, "", fmt.Errorf("unknown subcommand %q (have %s)", args[0], subcommandNames()))
}

func subcommandNames() string {
	names := make([]string, len(subcommands))
	for i, sc := range subcommands {
		names[i] = sc.name
	}
	return strings.Join(names, ", ")
}

// errLine renders an error for stderr with exactly one "haccrg: "
// prefix: the facade's errors already carry it, the others do not.
// what, when set, names the step or benchmark that failed.
func errLine(what string, err error) string {
	msg := strings.TrimPrefix(err.Error(), "haccrg: ")
	if what != "" {
		msg = what + ": " + msg
	}
	return "haccrg: " + msg
}

// fail reports err on stderr and returns code: CLI failures are error
// lines and exit codes, never panics.
func fail(code int, what string, err error) int {
	fmt.Fprintln(os.Stderr, errLine(what, err))
	return code
}

// specFailed reports an error from validating or expanding a run
// specification: a benchmark, detector, policy or site that does not
// exist is a usage error, anything else an error.
func specFailed(err error) int {
	if errors.Is(err, harness.ErrUnknown) {
		return fail(exitUsage, "", err)
	}
	return fail(exitError, "", err)
}

// runFailed reports a run that failed on its own (not interrupted): a
// run a guard rail aborted (a *HangError) exits 4, any other failure 1.
func runFailed(err error) int {
	var hang *haccrg.HangError
	if errors.As(err, &hang) {
		return fail(exitAbort, "", err)
	}
	return fail(exitError, "", err)
}

// signalContext returns a context that SIGINT and SIGTERM cancel: how
// the long-running modes wind down to resumable state instead of dying
// mid-write.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// bindRunSpec binds the flags that select what gets built straight
// into sp: the benchmark, its input scale and launch shape, injected
// races, the device and the tracking granularities. Run mode and lint
// bind them alike, check them with checkGranularities and expand sp
// with JobSpec.RunConfigs.
func bindRunSpec(fs *flag.FlagSet, sp *service.JobSpec) {
	fs.StringVar(&sp.Bench, "bench", "", "benchmark to run or analyze (see haccrg -list)")
	fs.IntVar(&sp.Scale, "scale", 1, "input scale factor")
	fs.BoolVar(&sp.SingleBlock, "single-block", false, "launch SCAN/KMEANS in their designed-for configuration")
	fs.Func("inject", "comma-separated race-injection site `IDs`", func(ids string) error {
		sp.Inject = nil
		if ids != "" {
			sp.Inject = strings.Split(ids, ",")
		}
		return nil
	})
	fs.BoolVar(&sp.SmallGPU, "small-gpu", false, "use the 4-SM test device instead of the Table I machine")
	fs.IntVar(&sp.SharedGranularity, "shared-gran", 16, "shared-memory tracking granularity (bytes, a power of two)")
	fs.IntVar(&sp.GlobalGranularity, "global-gran", 4, "global-memory tracking granularity (bytes, a power of two)")
}

// checkGranularities returns a usage error for a tracking granularity
// flag that is not a positive power of two (a RunConfig reads 0 as the
// default, so it must be caught here).
func checkGranularities(rc harness.RunConfig) error {
	for _, g := range []struct {
		flag  string
		bytes int
	}{{"-shared-gran", rc.SharedGranularity}, {"-global-gran", rc.GlobalGranularity}} {
		if g.bytes <= 0 || g.bytes&(g.bytes-1) != 0 {
			return fmt.Errorf("%s %d is not a power of two", g.flag, g.bytes)
		}
	}
	return nil
}

// bindGuardRails binds the flags run mode and bench share straight
// into rc — the fault-injection seed and the two guard rails — and
// returns -parallel.
func bindGuardRails(fs *flag.FlagSet, rc *harness.RunConfig) (parallel *int) {
	fs.Int64Var(&rc.FaultSeed, "seed", 0, "fault-injection PRNG seed (same plan+seed = same run)")
	fs.DurationVar(&rc.Timeout, "timeout", 0, "wall-clock watchdog per run (0 = none), e.g. 30s")
	fs.Int64Var(&rc.MaxCycles, "max-cycles", 0, "simulated-cycle budget per run (0 = unlimited)")
	return fs.Int("parallel", 0, "concurrent runs of a suite or sweep (0 = GOMAXPROCS, 1 = serial; output is identical either way)")
}
