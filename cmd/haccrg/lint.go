package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"haccrg/internal/harness"
	"haccrg/internal/isa"
	"haccrg/internal/kernels"
	"haccrg/internal/service"
	"haccrg/internal/staticrace"
	"haccrg/internal/termtab"
)

// lintMain runs the static kernel analyzer — CFG construction, abstract
// interpretation, the lint passes (barrier divergence, uninitialized
// shared reads, shared out-of-bounds, fence misuse) and the
// race-freedom prover — over benchmark kernels, without simulating
// anything; with -disasm it prints the kernels' disassembly instead:
//
//	haccrg lint -bench psum -sites
//	haccrg lint -all -json
//	haccrg lint -check-fixtures
//	haccrg lint -disasm -bench reduce -inject reduce.fence0
func lintMain(args []string) int {
	fs := flag.NewFlagSet("haccrg lint", flag.ExitOnError)
	sp := &service.JobSpec{Kind: service.JobAnalyze}
	bindRunSpec(fs, sp)
	var (
		all      = fs.Bool("all", false, "analyze the whole clean suite")
		checkFix = fs.Bool("check-fixtures", false, "CI gate: every defective fixture must flag, every clean benchmark must not")
		jsonOut  = fs.Bool("json", false, "emit the report as JSON")
		sites    = fs.Bool("sites", false, "include the prover's per-site race-freedom classification")
		disasm   = fs.Bool("disasm", false, "print the kernels' disassembly (race PCs index it) instead of analyzing them")
	)
	fs.Parse(args)

	switch {
	case *checkFix:
		for _, bm := range kernels.AllIncludingDefective() {
			sp.Benches = append(sp.Benches, bm.Name)
		}
	case *all:
		for _, bm := range kernels.All() {
			sp.Benches = append(sp.Benches, bm.Name)
		}
	case sp.Bench != "":
		sp.Benches = []string{sp.Bench}
	default:
		fmt.Fprintln(os.Stderr, "haccrg: one of -bench, -all or -check-fixtures required")
		fs.Usage()
		return exitUsage
	}
	if err := checkGranularities(sp.RunConfig); err != nil {
		return fail(exitUsage, "", err)
	}
	runs, err := sp.RunConfigs(false)
	if err != nil {
		return specFailed(err)
	}
	if *disasm {
		return printDisassembly(runs)
	}
	// The detector configuration run mode and the daemon analyze under.
	conf := runs[0].AnalyzerConfig(runs[0].DetectorOptions())
	if *checkFix {
		return checkFixtures(runs, conf)
	}
	return printStaticReport(runs, conf, *jsonOut, *sites)
}

// printStaticReport analyzes the kernels of runs under conf and prints
// the findings, plus the prover's per-site classification with sites:
// as JSON, or as text with two disassembly lines around each finding.
func printStaticReport(runs []harness.RunConfig, conf staticrace.Config, jsonOut, sites bool) int {
	var analyses []*staticrace.Analysis
	for _, rc := range runs {
		as, err := analyzeRun(rc, conf)
		if err != nil {
			return fail(exitError, rc.Bench, err)
		}
		analyses = append(analyses, as...)
	}
	rep := staticrace.BuildReport(analyses, sites)
	if jsonOut {
		fmt.Println(rep.JSON())
	} else {
		fmt.Print(rep.Human(analyses, 2, termtab.IsTTY(os.Stdout)))
	}
	if rep.Findings > 0 {
		return exitFound
	}
	return exitOK
}

// analyzeRun builds one run's kernels and analyzes each under conf.
func analyzeRun(rc harness.RunConfig, conf staticrace.Config) ([]*staticrace.Analysis, error) {
	ks, err := rc.Kernels()
	if err != nil {
		return nil, err
	}
	return harness.Analyze(ks, conf)
}

// printDisassembly prints each run's kernels: launch shape, then the
// assembled program with barrier placement, critical-section markers
// and divergent branches with their reconvergence points.
func printDisassembly(runs []harness.RunConfig) int {
	for _, rc := range runs {
		ks, err := rc.Kernels()
		if err != nil {
			return fail(exitError, rc.Bench, err)
		}
		for _, k := range ks {
			fmt.Printf("kernel %s  <<<grid %d x block %d, %dB shared, %d params>>>\n",
				k.Name, k.GridDim, k.BlockDim, k.SharedBytes, len(k.Params))
			// Re-validate explicitly: builder output is always valid, but a
			// defect here should print the typed diagnosis, not a bare string.
			if err := k.Prog.Validate(); err != nil {
				var verr *isa.ValidateError
				if errors.As(err, &verr) {
					err = fmt.Errorf("INVALID [%s] at pc %d: %s", verr.Kind, verr.PC, verr.Detail)
				}
				fmt.Fprintln(os.Stderr, errLine(k.Name, err))
			}
			fmt.Println(k.Prog.Disassemble())
		}
	}
	return exitOK
}

// checkFixtures is the analyzer's self-test: the deliberately
// defective fixtures must each raise at least one finding AND at
// least one checker-verified witness (a concrete racing thread pair
// the prover can replay), and the clean suite must raise no findings.
// Clean benchmarks may still carry witnesses — some benchmarks are
// genuinely racy by construction — but every witness anywhere must be
// verified and conflict-free. Exit 0 only when all of that holds, 3
// (findings) when it does not.
func checkFixtures(runs []harness.RunConfig, conf staticrace.Config) int {
	failed := false
	for _, rc := range runs {
		bm := kernels.Get(rc.Bench)
		analyses, err := analyzeRun(rc, conf)
		if err != nil {
			return fail(exitError, bm.Name, err)
		}
		findings, verified, unverified, conflicts := 0, 0, 0, 0
		for _, a := range analyses {
			findings += len(a.Findings)
			conflicts += a.Conflicts
			for _, w := range a.Witnesses {
				if w.Verified {
					verified++
				} else {
					unverified++
				}
			}
		}
		switch {
		case bm.Defective && findings == 0:
			fmt.Printf("FAIL %-8s defective fixture produced no findings\n", bm.Name)
			failed = true
		case bm.Defective && verified == 0:
			fmt.Printf("FAIL %-8s defective fixture produced no verified witness\n", bm.Name)
			failed = true
		case !bm.Defective && findings > 0:
			fmt.Printf("FAIL %-8s clean benchmark produced %d finding(s)\n", bm.Name, findings)
			for _, a := range analyses {
				for _, f := range a.Findings {
					fmt.Printf("       %s pc %d: [%s] %s\n", a.Kernel, f.PC, f.Pass, f.Msg)
				}
			}
			failed = true
		case unverified > 0:
			fmt.Printf("FAIL %-8s shipped %d unverified witness(es)\n", bm.Name, unverified)
			failed = true
		case conflicts > 0:
			fmt.Printf("FAIL %-8s witness checker reported %d conflict(s)\n", bm.Name, conflicts)
			failed = true
		default:
			fmt.Printf("ok   %-8s %d finding(s), %d verified witness(es)\n", bm.Name, findings, verified)
		}
	}
	if failed {
		return exitFound
	}
	return exitOK
}
