// Command haccrg-chaos runs seeded cross-layer chaos campaigns against
// the detection pipeline: deterministic fault schedules (filesystem
// faults under the journal/manifest/spool, HTTP faults between client
// and daemon) with every step checked against the four robustness invariants —
// never-silent-divergence, accepted-jobs-never-dropped,
// crash-resume-byte-identical, replay-equals-live.
//
// A violation is minimized to the smallest fault schedule that still
// breaks the invariant and printed as a one-line repro:
//
//	haccrg-chaos -scenario journal -sub-seed N -fs "crash:op=write,path=.journal,nth=7"
//
// Exit codes: 0 campaign clean (or repro did not reproduce),
// 1 invariant violated, 2 usage or infrastructure error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"haccrg/internal/chaos"
)

func main() {
	fs := flag.NewFlagSet("haccrg-chaos", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "campaign master seed; every fault schedule and workload derives from it")
	steps := fs.Int("steps", 3, "campaign rounds over the selected scenarios")
	scenario := fs.String("scenario", "", "comma-separated scenario subset (default: all)")
	list := fs.Bool("list", false, "list scenarios and exit")
	subSeed := fs.Int64("sub-seed", 0, "reproduce mode: run one scenario under this step seed (requires -scenario)")
	fsSpec := fs.String("fs", "", "reproduce mode: explicit filesystem fault schedule")
	httpSpec := fs.String("http", "", "reproduce mode: explicit HTTP fault schedule")
	reproOut := fs.String("repro-out", "chaos-repro.txt", "write the minimized repro here on violation (empty = stdout only)")
	verbose := fs.Bool("v", false, "narrate every step and injected fault")
	fs.Parse(os.Args[1:])

	if *list {
		for _, s := range chaos.Scenarios() {
			fmt.Println(s)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var logw io.Writer
	if *verbose {
		logw = os.Stderr
	}

	// Reproduce mode: one scenario, explicit sub-seed and schedules.
	if *subSeed != 0 || *fsSpec != "" || *httpSpec != "" {
		names := splitScenarios(*scenario)
		if len(names) != 1 {
			fmt.Fprintln(os.Stderr, "haccrg-chaos: reproduce mode needs exactly one -scenario")
			os.Exit(2)
		}
		v, err := chaos.Reproduce(ctx, names[0], *subSeed, *fsSpec, *httpSpec, logw)
		if err != nil {
			fmt.Fprintf(os.Stderr, "haccrg-chaos: %v\n", err)
			os.Exit(2)
		}
		if v != nil {
			emit(v, *reproOut)
			os.Exit(1)
		}
		fmt.Println("haccrg-chaos: did not reproduce — invariants held")
		return
	}

	c := &chaos.Campaign{
		Seed:      *seed,
		Steps:     *steps,
		Scenarios: splitScenarios(*scenario),
		Log:       logw,
	}
	rep, err := c.Run(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "haccrg-chaos: %v\n", err)
		os.Exit(2)
	}
	if rep.Violation != nil {
		emit(rep.Violation, *reproOut)
		os.Exit(1)
	}
	fmt.Printf("haccrg-chaos: seed %d clean — %d scenario runs, %d faults fired, all invariants held\n",
		*seed, rep.ScenarioRuns, rep.FaultsFired)
}

func splitScenarios(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func emit(v *chaos.Violation, path string) {
	fmt.Print(v.String())
	if path == "" {
		return
	}
	if err := os.WriteFile(path, []byte(v.String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "haccrg-chaos: writing %s: %v\n", path, err)
		return
	}
	fmt.Printf("repro written to %s\n", path)
}
