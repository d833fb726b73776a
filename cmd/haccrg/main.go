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
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"haccrg"
	"haccrg/internal/harness"
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
		detect      = flag.String("detect", "shared+global", "detection: off, shared, global, shared+global, shared-shadow-in-global, sw-haccrg, grace-addr")
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
	var benches []string
	switch {
	case *allBenches:
		for _, bm := range haccrg.Benchmarks() {
			benches = append(benches, bm.Name)
		}
	case *bench != "":
		benches = []string{*bench}
	case *serverURL != "":
		fmt.Fprintln(os.Stderr, "haccrg: -server-url needs -bench or -all-benches")
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "haccrg: -bench required (try -list)")
		os.Exit(2)
	}
	if mode, flags := unhonouredFlags(*serverURL != "", *allBenches, *staticReport); len(flags) > 0 {
		fmt.Fprintf(os.Stderr, "haccrg: %s cannot honour %s\n", mode, strings.Join(flags, ", "))
		os.Exit(2)
	}
	if *sharedGran == 0 || *globalGran == 0 {
		// A run specification reads granularity 0 as the default.
		fatal("", errors.New("-shared-gran and -global-gran must be powers of two"))
	}
	// The run flags bind once, into the job spec the daemon takes; both
	// modes expand it into runs through the same function, so a spec
	// the daemon would refuse is refused here first.
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
	runs, err := spec.RunConfigs(false)
	if err != nil {
		fmt.Fprintln(os.Stderr, errLine("", err))
		if errors.Is(err, harness.ErrUnknown) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	if *serverURL != "" {
		os.Exit(runRemote(*serverURL, *tenant, spec))
	}
	for i := range runs {
		// Locally -timeout is each run's watchdog; the daemon reads it
		// as the job's deadline.
		runs[i].Timeout = *timeout
	}

	// SIGINT/SIGTERM cancel the simulation through the context; the run
	// winds down via the launch guard rails, flushing the journal (if
	// any) with a well-framed prefix on disk.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *allBenches {
		harness.SetParallelism(*parallel)
		os.Exit(runSuite(ctx, runs))
	}
	rc := runs[0]
	if *staticReport {
		os.Exit(printStaticReport(rc, *jsonOut))
	}

	xo := harness.ExecOptions{Verify: *verify, Trace: *traceOut}
	var journalFile *journal.FileWriter
	if *record != "" {
		fw, ferr := journal.CreateFile(nil, *record)
		if ferr != nil {
			fatal("-record", ferr)
		}
		journalFile = fw
		xo.Record = fw
	}

	res, err := harness.ExecContext(ctx, rc, xo)
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
			fmt.Fprintln(os.Stderr, "haccrg: -json needs a detector with a race report (off and grace-addr have none)")
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

	if rc.Detector == harness.DetOff {
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
	if *traceOut && res.TraceRec != nil {
		fmt.Println()
		fmt.Print(res.TraceRec.Timeline())
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

// runOutputFlags shape the output of one local run. The other modes
// honour few or none of them.
var runOutputFlags = []string{"json", "max-races", "record", "static-report", "trace", "verify"}

// unhonouredFlags returns the run-output flags set on the command line
// that the selected mode cannot honour, and names that mode: a daemon
// run (-server-url) and a suite run (-all-benches) honour none of
// them, and a static report honours only -json.
func unhonouredFlags(remote, suite, staticReport bool) (mode string, flags []string) {
	var honoured []string
	switch {
	case remote:
		mode = "-server-url"
	case suite:
		mode = "-all-benches"
	case staticReport:
		mode, honoured = "-static-report", []string{"json", "static-report"}
	default:
		return "", nil
	}
	flag.Visit(func(f *flag.Flag) {
		if slices.Contains(runOutputFlags, f.Name) && !slices.Contains(honoured, f.Name) {
			flags = append(flags, "-"+f.Name)
		}
	})
	return mode, flags
}

// printStaticReport runs the static analyzer over a run's kernels and
// prints the findings plus the prover's per-site classification; exit
// 0 when clean, 3 with findings (mirroring the races-found exit), 1 on
// error.
func printStaticReport(rc harness.RunConfig, jsonOut bool) int {
	ks, err := rc.Kernels()
	if err != nil {
		fmt.Fprintln(os.Stderr, errLine("", err))
		return 1
	}
	analyses, err := harness.Analyze(ks, rc.AnalyzerConfig(rc.DetectorOptions()))
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

// runSuite runs every benchmark through the sweep engine and prints
// one summary line each; the exit code is 3 if any benchmark raced,
// mirroring single-benchmark behaviour. Output stays in suite order at
// any parallelism (each run owns its simulated device).
func runSuite(ctx context.Context, runs []harness.RunConfig) int {
	results, err := harness.Sweep(ctx, runs, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, errLine("", err))
		if ctx.Err() != nil {
			return exitInterrupted
		}
		return 1
	}
	raced := false
	fmt.Printf("%-8s %10s %8s %8s  %s\n", "bench", "cycles", "races", "reports", "categories")
	for _, res := range results {
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
			res.Config.Bench, res.Stats.Cycles, len(res.Races), reports, strings.Join(catStr, " "))
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
