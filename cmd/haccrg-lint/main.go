// Command haccrg-lint runs the static kernel analyzer — CFG
// construction, abstract interpretation, the lint passes
// (barrier-divergence, uninitialized shared reads, shared
// out-of-bounds, fence misuse) and the race-freedom prover — over
// benchmark kernels, without simulating anything.
//
// Usage:
//
//	haccrg-lint -bench psum -sites
//	haccrg-lint -all -json
//	haccrg-lint -check-fixtures
//
// Exit codes: 0 clean, 1 findings (or a failed fixture check),
// 2 usage, 3 analysis error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"haccrg/internal/gpu"
	"haccrg/internal/harness"
	"haccrg/internal/kernels"
	"haccrg/internal/staticrace"
	"haccrg/internal/termtab"
	"haccrg/internal/version"
)

func main() {
	var (
		bench       = flag.String("bench", "", "benchmark to analyze (see haccrg -list)")
		all         = flag.Bool("all", false, "analyze the whole clean suite")
		checkFix    = flag.Bool("check-fixtures", false, "CI gate: every defective fixture must flag, every clean benchmark must not")
		jsonOut     = flag.Bool("json", false, "emit the report as JSON")
		sites       = flag.Bool("sites", false, "include the prover's per-site race-freedom classification")
		scale       = flag.Int("scale", 1, "input scale factor")
		singleBlock = flag.Bool("single-block", false, "analyze SCAN/KMEANS in their designed-for configuration")
		inject      = flag.String("inject", "", "comma-separated race-injection site IDs to build in")
		contextN    = flag.Int("context", 2, "disassembly context lines around each finding")
		small       = flag.Bool("small-gpu", false, "assume the 4-SM test device geometry instead of the Table I machine")
		sharedGran  = flag.Int("shared-gran", 16, "shared-memory tracking granularity the prover models (bytes)")
		globalGran  = flag.Int("global-gran", 4, "global-memory tracking granularity the prover models (bytes)")
		warpAware   = flag.Bool("warp-aware", true, "model the detector's warp-aware suppression (core default)")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String("haccrg-lint"))
		return
	}

	var benches []string
	switch {
	case *checkFix:
		for _, bm := range kernels.AllIncludingDefective() {
			benches = append(benches, bm.Name)
		}
	case *all:
		for _, bm := range kernels.All() {
			benches = append(benches, bm.Name)
		}
	case *bench != "":
		benches = []string{*bench}
	default:
		fmt.Fprintln(os.Stderr, "haccrg-lint: one of -bench, -all or -check-fixtures required")
		flag.Usage()
		os.Exit(2)
	}
	rc := harness.RunConfig{
		Scale:             *scale,
		SingleBlock:       *singleBlock,
		SharedGranularity: *sharedGran,
		GlobalGranularity: *globalGran,
	}
	if *inject != "" {
		rc.Inject = strings.Split(*inject, ",")
	}
	if *small {
		cfg := gpu.TestConfig()
		rc.GPU = &cfg
	}
	runs, err := rc.Expand(benches)
	if err != nil {
		fmt.Fprintf(os.Stderr, "haccrg-lint: %v\n", err)
		os.Exit(2)
	}
	opt := rc.DetectorOptions()
	opt.WarpAware = *warpAware
	conf := rc.AnalyzerConfig(opt)
	if *checkFix {
		os.Exit(checkFixtures(runs, conf))
	}
	os.Exit(analyze(runs, conf, *jsonOut, *sites, *contextN))
}

// analyzeRun builds one run's kernels and analyzes each.
func analyzeRun(rc harness.RunConfig, conf staticrace.Config) ([]*staticrace.Analysis, error) {
	ks, err := rc.Kernels()
	if err != nil {
		return nil, err
	}
	return harness.Analyze(ks, conf)
}

func analyze(runs []harness.RunConfig, conf staticrace.Config, jsonOut, sites bool, contextN int) int {
	var analyses []*staticrace.Analysis
	for _, rc := range runs {
		res, err := analyzeRun(rc, conf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "haccrg-lint: %s: %v\n", rc.Bench, err)
			return 3
		}
		analyses = append(analyses, res...)
	}
	rep := staticrace.BuildReport(analyses, sites)
	if jsonOut {
		fmt.Println(rep.JSON())
	} else {
		fmt.Print(rep.Human(analyses, contextN, termtab.IsTTY(os.Stdout)))
	}
	if rep.Findings > 0 {
		return 1
	}
	return 0
}

// checkFixtures is the analyzer's self-test: the deliberately
// defective fixtures must each raise at least one finding AND at
// least one checker-verified witness (a concrete racing thread pair
// the prover can replay), and the clean suite must raise no findings.
// Clean benchmarks may still carry witnesses — some benchmarks are
// genuinely racy by construction — but every witness anywhere must be
// verified and conflict-free. Exit 0 only when all of that holds.
func checkFixtures(runs []harness.RunConfig, conf staticrace.Config) int {
	fail := false
	for _, rc := range runs {
		bm := kernels.Get(rc.Bench)
		analyses, err := analyzeRun(rc, conf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "haccrg-lint: %s: %v\n", bm.Name, err)
			return 3
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
			fail = true
		case bm.Defective && verified == 0:
			fmt.Printf("FAIL %-8s defective fixture produced no verified witness\n", bm.Name)
			fail = true
		case !bm.Defective && findings > 0:
			fmt.Printf("FAIL %-8s clean benchmark produced %d finding(s)\n", bm.Name, findings)
			for _, a := range analyses {
				for _, f := range a.Findings {
					fmt.Printf("       %s pc %d: [%s] %s\n", a.Kernel, f.PC, f.Pass, f.Msg)
				}
			}
			fail = true
		case unverified > 0:
			fmt.Printf("FAIL %-8s shipped %d unverified witness(es)\n", bm.Name, unverified)
			fail = true
		case conflicts > 0:
			fmt.Printf("FAIL %-8s witness checker reported %d conflict(s)\n", bm.Name, conflicts)
			fail = true
		default:
			fmt.Printf("ok   %-8s %d finding(s), %d verified witness(es)\n", bm.Name, findings, verified)
		}
	}
	if fail {
		return 1
	}
	return 0
}
