package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"haccrg"
	"haccrg/internal/harness"
	"haccrg/internal/journal"
	"haccrg/internal/service"
	"haccrg/internal/version"
)

// runMain is run mode: one benchmark, or the suite with -all-benches,
// simulated locally or submitted to a daemon with -server-url.
func runMain(args []string) int {
	fs := flag.NewFlagSet("haccrg", flag.ExitOnError)
	// The run flags bind once, into the job spec the daemon takes; both
	// modes expand it into runs through the same function, so a spec
	// the daemon would refuse is refused here first.
	sp := &service.JobSpec{Kind: service.JobBench}
	bindRunSpec(fs, sp)
	parallel := bindGuardRails(fs, &sp.RunConfig)
	fs.StringVar(&sp.FaultPlan, "fault-plan", "", "fault-injection plan for every run, e.g. queue:cap=16,drain=1;flip:rate=1e-5,ecc")
	fs.StringVar(&sp.Degradation, "degradation", "quarantine", "corrupt-granule policy: quarantine or reinit")
	fs.StringVar((*string)(&sp.Detector), "detect", "shared+global", "detection: off, shared, global, shared+global, shared-shadow-in-global, sw-haccrg, grace-addr")
	fs.BoolVar(&sp.StaticFilter, "static-filter", false,
		"statically prove sites race-free and let the RDUs skip their shadow checks (findings and cycles are byte-identical; inert under -fault-plan)")
	fs.BoolVar(&sp.WitnessSeed, "witness-seed", false,
		"pre-seed detector quarantine with the static analyzer's verified race witnesses: proven-racy global granules report on first touch (Provenance StaticWitness)")
	var (
		verify     = fs.Bool("verify", false, "check kernel output against the host reference")
		list       = fs.Bool("list", false, "list benchmarks and injection sites")
		allBenches = fs.Bool("all-benches", false, "run the whole suite and print a race summary (CI mode)")
		jsonOut    = fs.Bool("json", false, "emit a machine-readable JSON race report")
		traceOut   = fs.Bool("trace", false, "print an event timeline after the run")
		record     = fs.String("record", "", "write a durable event journal of the run to this file (replay with haccrg replay)")

		serverURL = fs.String("server-url", "",
			"submit the run to a haccrg serve daemon at this base URL instead of simulating locally (retries 429/503 with backoff)")
		tenant      = fs.String("tenant", "", "tenant identity sent with -server-url requests")
		showVersion = fs.Bool("version", false, "print version and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: haccrg [flags]\n       haccrg <%s> [flags]\n\nRun-mode flags:\n",
			strings.ReplaceAll(subcommandNames(), ", ", "|"))
		fs.PrintDefaults()
	}
	fs.Parse(args)

	if *showVersion {
		fmt.Println(version.String())
		return exitOK
	}
	if *list {
		listBenchmarks()
		return exitOK
	}
	switch {
	case *allBenches:
		for _, bm := range haccrg.Benchmarks() {
			sp.Benches = append(sp.Benches, bm.Name)
		}
	case sp.Bench != "":
		sp.Benches = []string{sp.Bench}
	case *serverURL != "":
		return fail(exitUsage, "", errors.New("-server-url needs -bench or -all-benches"))
	default:
		return fail(exitUsage, "", errors.New("-bench required (try -list)"))
	}
	if mode, flags := unhonouredFlags(fs, *serverURL != "", *allBenches, *jsonOut); len(flags) > 0 {
		return fail(exitUsage, "", fmt.Errorf("%s cannot honour %s", mode, strings.Join(flags, ", ")))
	}
	if err := checkGranularities(sp.RunConfig); err != nil {
		return fail(exitUsage, "", err)
	}
	// Locally -timeout is each run's watchdog; the daemon reads it as
	// the job's deadline.
	if sp.Timeout > 0 {
		sp.TimeoutMS = sp.Timeout.Milliseconds() // 0 = server default
	}
	runs, err := sp.RunConfigs(false)
	if err != nil {
		return specFailed(err)
	}
	if det := runs[0].Detector; *jsonOut && (det == harness.DetOff || det == harness.DetGRace) {
		return fail(exitUsage, "", errors.New("-json needs a detector with a race report (off and grace-addr have none)"))
	}

	// SIGINT/SIGTERM cancel the run through the context; a local run
	// winds down via the launch guard rails, flushing the journal (if
	// any) with a well-framed prefix on disk.
	ctx, stop := signalContext()
	defer stop()
	if *serverURL != "" {
		return runRemote(ctx, *serverURL, *tenant, sp)
	}
	if *allBenches {
		return runSuite(ctx, runs, *parallel)
	}
	rc := runs[0]
	xo := harness.ExecOptions{Verify: *verify, Trace: *traceOut}
	var journalFile *journal.FileWriter
	if *record != "" {
		fw, ferr := journal.CreateFile(nil, *record)
		if ferr != nil {
			return fail(exitError, "-record", ferr)
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
				return exitInterrupted
			}
			// Guard-rail trip: structured diagnostics plus the partial
			// stats the aborted run still produced.
			fmt.Fprint(os.Stderr, hang.Diagnose())
			fmt.Fprintf(os.Stderr, "haccrg: partial run: %d cycles, %d blocks retired\n",
				res.Stats.Cycles, res.Stats.BlocksRetired)
			return exitAbort
		}
		if ctx.Err() != nil {
			return fail(exitInterrupted, "interrupted", err)
		}
		return fail(exitError, "", err)
	}

	if *jsonOut {
		if err := res.Report.WriteJSON(os.Stdout); err != nil {
			return fail(exitError, "", err)
		}
		if len(res.Races) > 0 {
			return exitFound
		}
		return exitOK
	}

	st := res.Stats
	fmt.Printf("benchmark      %s (scale %d)\n", sp.Bench, sp.Scale)
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

	if rc.StaticFilter && res.Report != nil {
		fmt.Printf("static filter  %d shadow checks skipped\n", res.Report.Summary.Checks["filtered"])
	}
	if rc.WitnessSeed {
		seeded := 0
		for _, r := range res.Races {
			if r.Provenance == "StaticWitness" {
				seeded++
			}
		}
		fmt.Printf("witness seed   %d race(s) reported from static witnesses on first touch\n", seeded)
	}
	if *traceOut {
		fmt.Println()
		fmt.Print(res.Timeline)
	}
	// -static-filter and -witness-seed are refused under off, so only
	// the timeline precedes this return.
	if rc.Detector == harness.DetOff {
		return exitOK
	}

	fmt.Printf("\n%d distinct data race(s) detected\n", len(res.Races))
	for i, r := range res.Races {
		if i >= maxPrintedRaces {
			fmt.Printf("... and %d more\n", len(res.Races)-i)
			break
		}
		fmt.Println(" ", r)
	}
	if len(res.Races) > 0 {
		return exitFound // races found: non-zero exit, like a checker tool
	}
	return exitOK
}

// maxPrintedRaces caps the races a text report lists; -json and
// -trace show every race.
const maxPrintedRaces = 20

// runOutputFlags shape the output of one local run. The other modes
// honour few or none of them.
var runOutputFlags = []string{"json", "record", "trace", "verify"}

// unhonouredFlags returns the run-output flags set on fs's command line
// that the selected mode cannot honour, and names that mode: a daemon
// run (-server-url) and a suite run (-all-benches) honour none of
// them, and a JSON report only -record and -verify.
func unhonouredFlags(fs *flag.FlagSet, remote, suite, jsonOut bool) (mode string, flags []string) {
	var honoured []string
	switch {
	case remote:
		mode = "-server-url"
	case suite:
		mode = "-all-benches"
	case jsonOut:
		mode, honoured = "-json", []string{"json", "record", "verify"}
	default:
		return "", nil
	}
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(runOutputFlags, f.Name) && !slices.Contains(honoured, f.Name) {
			flags = append(flags, "-"+f.Name)
		}
	})
	return mode, flags
}

// runSuite runs every benchmark through the sweep engine on workers
// workers and prints one summary line each; the exit code is 3 if any
// benchmark raced, mirroring single-benchmark behaviour. Output stays
// in suite order at any parallelism (each run owns its simulated
// device).
func runSuite(ctx context.Context, runs []harness.RunConfig, workers int) int {
	results, err := harness.Sweep{Ctx: ctx, Workers: workers}.Run(runs)
	if err != nil {
		if ctx.Err() != nil {
			return fail(exitInterrupted, "", err)
		}
		return runFailed(err)
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
		return exitFound
	}
	return exitOK
}

// runRemote submits the run to a haccrg serve daemon and waits for the
// verdict, mirroring the local exit codes: 0 clean, 3 races, 5
// interrupted (locally by a signal, or remotely by a daemon drain —
// resubmitting or restarting the daemon resumes it), 1 failure.
func runRemote(ctx context.Context, baseURL, tenant string, spec *service.JobSpec) int {
	cl := &service.Client{BaseURL: baseURL, Tenant: tenant}
	id, err := cl.Submit(ctx, spec)
	if err != nil {
		return fail(exitError, "submit", err)
	}
	fmt.Fprintf(os.Stderr, "haccrg: job %s accepted by %s\n", id, baseURL)
	st, err := cl.Wait(ctx, id)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "haccrg: interrupted waiting for job %s (it keeps running server-side)\n", id)
			return exitInterrupted
		}
		return fail(exitError, "", err)
	}
	switch st.State {
	case service.StateFailed:
		fmt.Fprintf(os.Stderr, "haccrg: job %s failed: %s\n", id, st.Error)
		return exitError
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
		return exitFound
	}
	return exitOK
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
