package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"haccrg/internal/chaos"
)

// chaosMain runs seeded cross-layer chaos campaigns against the
// detection pipeline: deterministic fault schedules (filesystem faults
// under the journal, manifest and spool; HTTP faults between client
// and daemon) with every step checked against the four robustness
// invariants — never-silent-divergence, accepted-jobs-never-dropped,
// crash-resume-byte-identical, replay-equals-live. A violation exits 3,
// minimized to the smallest fault schedule that still breaks the
// invariant and printed as a one-line repro:
//
//	haccrg chaos -scenario journal -sub-seed N -fs "crash:op=write,path=.journal,nth=7"
func chaosMain(args []string) int {
	fs := flag.NewFlagSet("haccrg chaos", flag.ExitOnError)
	var (
		seed     = fs.Int64("seed", 1, "campaign master seed; every fault schedule and workload derives from it")
		steps    = fs.Int("steps", 3, "campaign rounds over the selected scenarios")
		scenario = fs.String("scenario", "", "comma-separated scenario subset (default: all)")
		list     = fs.Bool("list", false, "list scenarios and exit")
		subSeed  = fs.Int64("sub-seed", 0, "reproduce mode: run one scenario under this step seed (requires -scenario)")
		fsSpec   = fs.String("fs", "", "reproduce mode: explicit filesystem fault schedule")
		httpSpec = fs.String("http", "", "reproduce mode: explicit HTTP fault schedule")
		reproOut = fs.String("repro-out", "chaos-repro.txt", "write the minimized repro here on violation (empty = stdout only)")
		verbose  = fs.Bool("v", false, "narrate every step and injected fault")
	)
	fs.Parse(args)

	if *list {
		for _, s := range chaos.Scenarios() {
			fmt.Println(s)
		}
		return exitOK
	}
	// A schedule that does not parse is a usage error, like a scenario
	// name that does not exist (which wraps harness.ErrUnknown).
	if _, err := chaos.ParseSchedule(*fsSpec); err != nil {
		return fail(exitUsage, "-fs", err)
	}
	if _, err := chaos.ParseHTTPSchedule(*httpSpec); err != nil {
		return fail(exitUsage, "-http", err)
	}

	ctx, stop := signalContext()
	defer stop()
	var logw io.Writer
	if *verbose {
		logw = os.Stderr
	}
	failed := func(err error) int {
		if ctx.Err() != nil {
			return fail(exitInterrupted, "", err)
		}
		return specFailed(err)
	}

	// Reproduce mode: one scenario, explicit sub-seed and schedules.
	if *subSeed != 0 || *fsSpec != "" || *httpSpec != "" {
		names := splitScenarios(*scenario)
		if len(names) != 1 {
			return fail(exitUsage, "", errors.New("reproduce mode needs exactly one -scenario"))
		}
		v, err := chaos.Reproduce(ctx, names[0], *subSeed, *fsSpec, *httpSpec, logw)
		if err != nil {
			return failed(err)
		}
		if v != nil {
			emit(v, *reproOut)
			return exitFound
		}
		fmt.Println("haccrg chaos: did not reproduce — invariants held")
		return exitOK
	}

	c := &chaos.Campaign{
		Seed:      *seed,
		Steps:     *steps,
		Scenarios: splitScenarios(*scenario),
		Log:       logw,
	}
	rep, err := c.Run(ctx)
	if err != nil {
		return failed(err)
	}
	if rep.Violation != nil {
		emit(rep.Violation, *reproOut)
		return exitFound
	}
	fmt.Printf("haccrg chaos: seed %d clean — %d scenario runs, %d faults fired, all invariants held\n",
		*seed, rep.ScenarioRuns, rep.FaultsFired)
	return exitOK
}

func splitScenarios(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// emit prints a violation and its repro line, and writes them to path
// unless it is empty.
func emit(v *chaos.Violation, path string) {
	fmt.Print(v.String())
	if path == "" {
		return
	}
	if err := os.WriteFile(path, []byte(v.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, errLine("writing "+path, err))
		return
	}
	fmt.Printf("repro written to %s\n", path)
}
