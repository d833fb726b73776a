// Command haccrg runs one benchmark on the simulated GPU with a chosen
// race-detection configuration and reports detected races and
// execution statistics.
//
// Usage:
//
//	haccrg -bench reduce -detect shared+global
//	haccrg -bench scan -single-block -verify
//	haccrg -bench psum -inject psum.fence0
//	haccrg -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"haccrg"
	"haccrg/internal/journal"
	"haccrg/internal/service"
	"haccrg/internal/termtab"
	"haccrg/internal/version"
)

// exitInterrupted is the exit code for a run cut short by SIGINT or
// SIGTERM: distinct from failure (1), usage (2), races (3) and hangs
// (4), so scripts can tell a clean cancellation from a broken run.
const exitInterrupted = 5

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

// fatal reports an error and exits non-zero; CLI failures are error
// messages, never panics.
func fatal(what string, err error) {
	fmt.Fprintln(os.Stderr, errLine(what, err))
	os.Exit(1)
}

func main() {
	var (
		bench       = flag.String("bench", "", "benchmark to run (see -list)")
		detect      = flag.String("detect", "shared+global", "detection: off, shared, global, shared+global")
		scale       = flag.Int("scale", 1, "input scale factor")
		sharedGran  = flag.Int("shared-gran", 16, "shared-memory tracking granularity (bytes)")
		globalGran  = flag.Int("global-gran", 4, "global-memory tracking granularity (bytes)")
		singleBlock = flag.Bool("single-block", false, "launch SCAN/KMEANS in their designed-for configuration")
		inject      = flag.String("inject", "", "comma-separated race-injection site IDs")
		verify      = flag.Bool("verify", false, "check kernel output against the host reference")
		small       = flag.Bool("small-gpu", false, "use the 4-SM test device instead of the Table I machine")
		list        = flag.Bool("list", false, "list benchmarks and injection sites")
		allBenches  = flag.Bool("all-benches", false, "run the whole suite and print a race summary (CI mode)")
		jsonOut     = flag.Bool("json", false, "emit a machine-readable JSON race report")
		traceOut    = flag.Bool("trace", false, "print an event timeline after the run")
		maxRaces    = flag.Int("max-races", 20, "maximum distinct races to print")
		record      = flag.String("record", "", "write a durable event journal of the run to this file (replay with haccrg-replay)")

		faultPlan   = flag.String("fault-plan", "", "fault-injection plan, e.g. queue:cap=16,drain=1;flip:rate=1e-5,ecc")
		faultSeed   = flag.Int64("seed", 0, "fault-injection PRNG seed (same plan+seed = same run)")
		degradation = flag.String("degradation", "quarantine", "corrupt-granule policy: quarantine or reinit")
		timeout     = flag.Duration("timeout", 0, "wall-clock watchdog for the run (0 = none), e.g. 30s")
		maxCycles   = flag.Int64("max-cycles", 0, "simulated-cycle budget for the run (0 = unlimited)")
		parallel    = flag.Int("parallel", 0, "concurrent benchmark runs in -all-benches mode (0 = GOMAXPROCS, 1 = serial)")

		staticFilter = flag.Bool("static-filter", false,
			"statically prove sites race-free and let the RDUs skip their shadow checks (findings and cycles are byte-identical; inert under -fault-plan)")
		staticReport = flag.Bool("static-report", false,
			"print the static analyzer's findings and site classification for -bench, without simulating (use haccrg-lint for the full linter CLI)")
		witnessSeed = flag.Bool("witness-seed", false,
			"pre-seed detector quarantine with the static analyzer's verified race witnesses: proven-racy global granules report on first touch (Provenance StaticWitness)")

		serverURL = flag.String("server-url", "",
			"submit the run to a haccrg-server daemon at this base URL instead of simulating locally (retries 429/503 with backoff)")
		tenant      = flag.String("tenant", "", "tenant identity sent with -server-url requests")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String("haccrg"))
		return
	}
	if *list {
		listBenchmarks()
		return
	}
	if *serverURL != "" {
		var benches []string
		if *allBenches {
			for _, bm := range haccrg.Benchmarks() {
				benches = append(benches, bm.Name)
			}
		} else if *bench != "" {
			benches = []string{*bench}
		} else {
			fmt.Fprintln(os.Stderr, "haccrg: -server-url needs -bench or -all-benches")
			os.Exit(2)
		}
		spec := &service.JobSpec{
			Kind:              service.JobBench,
			Benches:           benches,
			Detector:          *detect,
			Scale:             *scale,
			SingleBlock:       *singleBlock,
			SharedGranularity: *sharedGran,
			GlobalGranularity: *globalGran,
			StaticFilter:      *staticFilter,
			WitnessSeed:       *witnessSeed,
			FaultPlan:         *faultPlan,
			FaultSeed:         *faultSeed,
			Degradation:       *degradation,
			SmallGPU:          *small,
			MaxCycles:         *maxCycles,
			TimeoutMS:         timeoutMS(*timeout),
		}
		if *inject != "" {
			spec.Inject = strings.Split(*inject, ",")
		}
		os.Exit(runRemote(*serverURL, *tenant, spec))
	}
	if *allBenches {
		haccrg.SetParallelism(*parallel)
		os.Exit(runSuite(*scale, *small))
	}
	if *bench == "" {
		fmt.Fprintln(os.Stderr, "haccrg: -bench required (try -list)")
		os.Exit(2)
	}
	if *staticReport {
		os.Exit(printStaticReport(*bench, *scale, *singleBlock, *inject, *small,
			*sharedGran, *globalGran, *jsonOut))
	}

	opts := haccrg.RunOptions{
		Scale:        *scale,
		SingleBlock:  *singleBlock,
		Verify:       *verify,
		Trace:        *traceOut,
		StaticFilter: *staticFilter,
		WitnessSeed:  *witnessSeed,
		FaultPlan:    *faultPlan,
		FaultSeed:    *faultSeed,
		Degradation:  *degradation,
		MaxCycles:    *maxCycles,
		Timeout:      *timeout,
	}
	if *small {
		cfg := haccrg.SmallGPU()
		opts.GPU = &cfg
	}
	if *inject != "" {
		opts.Inject = strings.Split(*inject, ",")
	}
	if *detect != "off" {
		d := haccrg.DefaultDetection()
		d.SharedGranularity = *sharedGran
		d.GlobalGranularity = *globalGran
		switch *detect {
		case "shared":
			d.Global = false
			d.DetectStaleL1 = false
		case "global":
			d.Shared = false
		case "shared+global":
		default:
			fmt.Fprintf(os.Stderr, "haccrg: unknown -detect %q\n", *detect)
			os.Exit(2)
		}
		opts.Detection = &d
	}

	// SIGINT/SIGTERM cancel the simulation through the context; the run
	// winds down via the launch guard rails, flushing the journal (if
	// any) with a well-framed prefix on disk.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var journalFile *journal.FileWriter
	if *record != "" {
		fw, ferr := journal.CreateFile(nil, *record)
		if ferr != nil {
			fatal("-record", ferr)
		}
		journalFile = fw
		opts.Record = fw
	}

	res, err := haccrg.RunBenchmarkContext(ctx, *bench, opts)
	if journalFile != nil {
		// Close syncs first: an fsync failure here means the journal may
		// not be on disk, and that must fail the run loudly rather than
		// let a later replay quietly come up short.
		if cerr := journalFile.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("-record %s: %w", *record, cerr)
		}
	}
	if err != nil {
		var hang *haccrg.HangError
		if errors.As(err, &hang) && res != nil {
			if ctx.Err() != nil {
				// Interrupted, not hung: the journal prefix on disk is
				// intact and replayable up to the cut.
				fmt.Fprintf(os.Stderr, "haccrg: interrupted: %d cycles, %d blocks retired\n",
					res.Stats.Cycles, res.Stats.BlocksRetired)
				os.Exit(exitInterrupted)
			}
			// Guard-rail trip: structured diagnostics plus the partial
			// stats the aborted run still produced.
			fmt.Fprint(os.Stderr, hang.Diagnose())
			fmt.Fprintf(os.Stderr, "haccrg: partial run: %d cycles, %d blocks retired\n",
				res.Stats.Cycles, res.Stats.BlocksRetired)
			os.Exit(4)
		}
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, errLine("interrupted", err))
			os.Exit(exitInterrupted)
		}
		fatal("", err)
	}

	if *jsonOut {
		if res.Report == nil {
			fmt.Fprintln(os.Stderr, "haccrg: -json requires detection (use -detect)")
			os.Exit(2)
		}
		if err := res.Report.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "haccrg:", err)
			os.Exit(1)
		}
		if len(res.Races) > 0 {
			os.Exit(3)
		}
		return
	}

	st := res.Stats
	fmt.Printf("benchmark      %s (scale %d)\n", *bench, *scale)
	fmt.Printf("cycles         %d\n", st.Cycles)
	fmt.Printf("warp instrs    %d (%d thread instrs)\n", st.WarpInstrs, st.ThreadInstrs)
	fmt.Printf("shared reads   %.2f%% of instructions\n", st.SharedReadPct())
	fmt.Printf("global reads   %.2f%% of instructions\n", st.GlobalReadPct())
	fmt.Printf("barriers       %d  fences %d  divergences %d\n", st.Barriers, st.Fences, st.Divergences)
	fmt.Printf("L1 hit rate    %.1f%%   L2 hit rate %.1f%%\n", 100*st.L1.HitRate(), 100*st.L2.HitRate())
	fmt.Printf("DRAM util      %.1f%%   shadow txs %d\n", 100*st.DRAMUtil, st.ShadowTx)
	if res.Health != nil {
		fmt.Println(res.Health)
	}

	if opts.Detection == nil {
		return
	}
	if *staticFilter && res.Report != nil {
		fmt.Printf("static filter  %d shadow checks skipped\n", res.Report.Summary.Checks["filtered"])
	}
	if *witnessSeed {
		seeded := 0
		for _, r := range res.Races {
			if r.Provenance == "StaticWitness" {
				seeded++
			}
		}
		fmt.Printf("witness seed   %d race(s) reported from static witnesses on first touch\n", seeded)
	}
	if *traceOut && res.Trace != nil {
		fmt.Println()
		fmt.Print(res.Trace.Timeline())
	}

	fmt.Printf("\n%d distinct data race(s) detected\n", len(res.Races))
	for i, r := range res.Races {
		if i >= *maxRaces {
			fmt.Printf("... and %d more\n", len(res.Races)-i)
			break
		}
		fmt.Println(" ", r)
	}
	if len(res.Races) > 0 {
		os.Exit(3) // races found: non-zero exit, like a checker tool
	}
}

// printStaticReport runs the static analyzer over a benchmark's
// kernels and prints the findings plus the prover's per-site
// classification; exit 0 when clean, 3 with findings (mirroring the
// races-found exit), 1 on error.
func printStaticReport(bench string, scale int, singleBlock bool, inject string, small bool, sharedGran, globalGran int, jsonOut bool) int {
	opts := haccrg.AnalyzeOptions{Scale: scale, SingleBlock: singleBlock}
	if inject != "" {
		opts.Inject = strings.Split(inject, ",")
	}
	if small {
		cfg := haccrg.SmallGPU()
		opts.GPU = &cfg
	}
	d := haccrg.DefaultDetection()
	d.SharedGranularity = sharedGran
	d.GlobalGranularity = globalGran
	opts.Detection = &d
	analyses, err := haccrg.AnalyzeBenchmark(bench, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, errLine("", err))
		return 1
	}
	rep := haccrg.BuildStaticReport(analyses, true)
	if jsonOut {
		fmt.Println(rep.JSON())
	} else {
		fmt.Print(rep.Human(analyses, 2, termtab.IsTTY(os.Stdout)))
	}
	if rep.Findings > 0 {
		return 3
	}
	return 0
}

// runSuite runs every benchmark under full detection and prints one
// summary line each; the exit code is 3 if any benchmark raced,
// mirroring single-benchmark behaviour. Benchmarks run concurrently up
// to the configured parallelism; output stays in suite order (each run
// owns its simulated device, so results do not depend on the worker
// count).
func runSuite(scale int, small bool) int {
	opts := haccrg.RunOptions{Scale: scale}
	if small {
		cfg := haccrg.SmallGPU()
		opts.GPU = &cfg
	}
	det := haccrg.DefaultDetection()
	det.SharedGranularity = 4
	opts.Detection = &det

	benches := haccrg.Benchmarks()
	results := make([]*haccrg.RunResult, len(benches))
	errs := make([]error, len(benches))
	workers := haccrg.Parallelism()
	if workers > len(benches) {
		workers = len(benches)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = haccrg.RunBenchmark(benches[i].Name, opts)
			}
		}()
	}
	for i := range benches {
		next <- i
	}
	close(next)
	wg.Wait()

	raced := false
	fmt.Printf("%-8s %10s %8s %8s  %s\n", "bench", "cycles", "races", "reports", "categories")
	for i, bm := range benches {
		if errs[i] != nil {
			fmt.Fprintln(os.Stderr, errLine(bm.Name, errs[i]))
			return 1
		}
		res := results[i]
		cats := map[string]int{}
		var reports int64
		for _, r := range res.Races {
			cats[r.Category.String()]++
			reports += r.Count
		}
		var catStr []string
		for c, n := range cats {
			catStr = append(catStr, fmt.Sprintf("%s:%d", c, n))
		}
		sort.Strings(catStr)
		fmt.Printf("%-8s %10d %8d %8d  %s\n",
			bm.Name, res.Stats.Cycles, len(res.Races), reports, strings.Join(catStr, " "))
		if len(res.Races) > 0 {
			raced = true
		}
	}
	if raced {
		return 3
	}
	return 0
}

// timeoutMS renders a -timeout duration as the spec's millisecond
// field (0 = server default).
func timeoutMS(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	return d.Milliseconds()
}

// runRemote submits the run to a haccrg-server daemon and waits for
// the verdict, mirroring the local exit codes: 0 clean, 3 races, 5
// interrupted (locally by a signal, or remotely by a daemon drain —
// resubmitting or restarting the daemon resumes it), 1 failure.
func runRemote(baseURL, tenant string, spec *service.JobSpec) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cl := &service.Client{BaseURL: baseURL, Tenant: tenant}
	id, err := cl.Submit(ctx, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, errLine("submit", err))
		return 1
	}
	fmt.Fprintf(os.Stderr, "haccrg: job %s accepted by %s\n", id, baseURL)
	st, err := cl.Wait(ctx, id)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "haccrg: interrupted waiting for job %s (it keeps running server-side)\n", id)
			return exitInterrupted
		}
		fmt.Fprintln(os.Stderr, errLine("", err))
		return 1
	}
	switch st.State {
	case service.StateFailed:
		fmt.Fprintf(os.Stderr, "haccrg: job %s failed: %s\n", id, st.Error)
		return 1
	case service.StateInterrupted:
		fmt.Fprintf(os.Stderr, "haccrg: job %s interrupted by daemon drain; it resumes when the daemon restarts\n", id)
		return exitInterrupted
	}
	raced := false
	for _, r := range st.Runs {
		note := ""
		if r.Resumed {
			note = "  (resumed)"
		}
		if r.Degraded {
			note += "  [degraded]"
		}
		fmt.Printf("%-8s %-14s %10d cycles %4d race(s)%s\n", r.Bench, r.Detector, r.Cycles, len(r.Races), note)
		for _, race := range r.Races {
			fmt.Println("   ", race)
		}
		if len(r.Races) > 0 {
			raced = true
		}
	}
	if raced {
		return 3
	}
	return 0
}

func listBenchmarks() {
	fmt.Println("Benchmarks (Table II):")
	for _, bm := range haccrg.Benchmarks() {
		fmt.Printf("  %-8s %s\n           inputs: %s\n", bm.Name, bm.Desc, bm.Input)
		for _, s := range bm.Sites {
			fmt.Printf("           site %-16s %s: %s\n", s.ID, s.Kind, s.Desc)
		}
	}
}
