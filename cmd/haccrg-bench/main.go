// Command haccrg-bench regenerates the paper's evaluation: every table
// and figure of "HAccRG: Hardware-Accelerated Data Race Detection in
// GPUs" (ICPP 2013), from the hardware-parameter table through the
// performance and bandwidth studies.
//
// Usage:
//
//	haccrg-bench -all
//	haccrg-bench -table 3
//	haccrg-bench -fig 7 -scale 2
//	haccrg-bench -exp injected
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"haccrg"
	"haccrg/internal/harness"
	"haccrg/internal/version"
)

// exitInterrupted is the exit code for a sweep cut short by SIGINT or
// SIGTERM. The manifest (if any) holds every completed run; rerunning
// with -resume picks up where the sweep stopped.
const exitInterrupted = 5

// fatalf reports an error and exits non-zero; CLI failures are error
// messages, never panics.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "haccrg-bench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		all      = flag.Bool("all", false, "run every experiment")
		tableNum = flag.Int("table", 0, "regenerate one table (1-4)")
		figNum   = flag.Int("fig", 0, "regenerate one figure (7-9)")
		exp      = flag.String("exp", "", "named experiment: races, injected, bloom, ids, hw, tlb, regroup, bloom-e2e, syncid, sched, faults")
		scale    = flag.Int("scale", 2, "input scale factor for timed experiments")

		faultPlan   = flag.String("fault-plan", "", "fault plan merged into every sweep run (e.g. queue:cap=16,drain=1)")
		faultSeed   = flag.Int64("seed", 0, "fault-injection PRNG seed")
		degradation = flag.String("degradation", "", "corrupt-granule policy: quarantine or reinit")
		timeout     = flag.Duration("timeout", 0, "wall-clock watchdog per sweep run (0 = none)")
		maxCycles   = flag.Int64("max-cycles", 0, "simulated-cycle budget per sweep run (0 = unlimited)")
		healthCSV   = flag.String("health-csv", "", "write the fault study's health columns to this CSV file")

		manifest = flag.String("manifest", "", "journal completed sweep runs to this file (crash-safe; see -resume)")
		resume   = flag.Bool("resume", false, "with -manifest: serve already-completed runs from the manifest instead of re-simulating them")

		parallel   = flag.Int("parallel", 0, "concurrent sweep runs (0 = GOMAXPROCS, 1 = serial; output is identical either way)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")

		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String("haccrg-bench"))
		return
	}

	haccrg.SetSweepDefaults(haccrg.SweepDefaults{
		FaultPlan:   *faultPlan,
		FaultSeed:   *faultSeed,
		Degradation: *degradation,
		MaxCycles:   *maxCycles,
		Timeout:     *timeout,
	})
	haccrg.SetParallelism(*parallel)

	if *resume && *manifest == "" {
		fmt.Fprintln(os.Stderr, "haccrg-bench: -resume requires -manifest")
		os.Exit(2)
	}
	var mf *harness.Manifest
	if *manifest != "" {
		m, salvage, err := harness.OpenManifest(*manifest, *resume)
		if err != nil {
			fatalf("manifest: %v", err)
		}
		mf = m
		harness.SetManifest(mf)
		if *resume {
			note := ""
			if salvage.Truncated {
				note = fmt.Sprintf(" (torn tail dropped: %s)", salvage.Reason)
			}
			fmt.Fprintf(os.Stderr, "haccrg-bench: resuming: %d completed run(s) recovered from %s%s\n",
				mf.Len(), *manifest, note)
		}
	}

	// SIGINT/SIGTERM cancel every in-flight sweep run through the shared
	// context; completed runs are already synced to the manifest, so the
	// sweep exits with resumable state.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	harness.SetSweepContext(ctx)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatalf("%v", err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("memprofile: %v", err)
			}
		}()
	}

	ran := false
	run := func(title string, f func() (string, error)) {
		ran = true
		fmt.Printf("==== %s ====\n", title)
		txt, err := f()
		if err != nil {
			// Every completed run is already synced to the manifest;
			// close it so the journal ends at a frame boundary, then
			// report. An interrupt is resumable state, not a failure.
			if mf != nil {
				mf.Close()
			}
			if ctx.Err() != nil || errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "haccrg-bench: interrupted during %q: %v\n", title, err)
				if mf != nil {
					fmt.Fprintf(os.Stderr, "haccrg-bench: %d completed run(s) saved; rerun with -manifest %s -resume\n",
						mf.Len(), mf.Path())
				}
				os.Exit(exitInterrupted)
			}
			fatalf("%v", err)
		}
		fmt.Println(txt)
	}

	e := haccrg.Experiments
	if *all || *tableNum == 1 {
		run("Table I: GPU hardware parameters", func() (string, error) {
			return e.Table1(haccrg.DefaultGPU()), nil
		})
	}
	if *all || *tableNum == 2 {
		run("Table II: benchmarks and instruction mix", func() (string, error) {
			_, txt, err := e.Table2(*scale)
			return txt, err
		})
	}
	if *all || *tableNum == 3 {
		run("Table III: false races vs tracking granularity", func() (string, error) {
			_, _, txt, err := e.Table3(1)
			return txt, err
		})
	}
	if *all || *tableNum == 4 {
		run("Table IV: global shadow memory overhead", func() (string, error) {
			_, txt, err := e.Table4(*scale)
			return txt, err
		})
	}
	if *all || *figNum == 7 {
		run("Figure 7: performance impact of race detection", func() (string, error) {
			_, txt, err := e.Fig7(*scale)
			return txt, err
		})
	}
	if *all || *figNum == 8 {
		run("Figure 8: shared shadow entries in global memory", func() (string, error) {
			_, txt, err := e.Fig8(*scale)
			return txt, err
		})
	}
	if *all || *figNum == 9 {
		run("Figure 9: DRAM bandwidth utilization", func() (string, error) {
			_, txt, err := e.Fig9(*scale)
			return txt, err
		})
	}
	if *all || *exp == "races" {
		run("Section VI-A: races in unmodified benchmarks", func() (string, error) {
			_, txt, err := e.RealRaces(1)
			return txt, err
		})
	}
	if *all || *exp == "injected" {
		run("Section VI-A: 41 injected races", func() (string, error) {
			_, txt, err := e.Injected(1)
			return txt, err
		})
	}
	if *all || *exp == "bloom" {
		run("Section VI-A2: Bloom-filter signature accuracy", func() (string, error) {
			return e.BloomStress(), nil
		})
	}
	if *all || *exp == "ids" {
		run("Section VI-A2: sync/fence logical-clock usage", func() (string, error) {
			return e.IDUsage(1)
		})
	}
	if *all || *exp == "hw" {
		run("Section VI-C2: hardware overhead", func() (string, error) {
			return e.HardwareCost(), nil
		})
	}
	if *all || *exp == "tlb" {
		run("Section IV-B: virtual-memory shadow translation (extension)", func() (string, error) {
			_, txt, err := e.TLBStudy(1)
			return txt, err
		})
	}
	if *all || *exp == "regroup" {
		run("Section III-A: warp re-grouping ablation (extension)", func() (string, error) {
			return e.WarpRegroupStudy()
		})
	}
	if *all || *exp == "bloom-e2e" {
		run("Section VI-A2: lockset signatures end-to-end (extension)", func() (string, error) {
			return e.BloomEndToEnd()
		})
	}
	if *all || *exp == "sched" {
		run("Warp scheduling ablation: round-robin vs GTO (extension)", func() (string, error) {
			return e.SchedulerStudy(1)
		})
	}
	if *all || *exp == "syncid" {
		run("Section IV-B: sync-ID increment gating ablation (extension)", func() (string, error) {
			return e.SyncIDGating(1)
		})
	}
	if *all || *exp == "faults" {
		run("Fault injection: RDU degradation study (extension)", func() (string, error) {
			rows, txt, err := e.FaultStudy(1, *faultSeed)
			if err != nil {
				return "", err
			}
			if *healthCSV != "" {
				f, err := os.Create(*healthCSV)
				if err != nil {
					return "", err
				}
				defer f.Close()
				if err := harness.WriteFaultStudyCSV(f, rows); err != nil {
					return "", err
				}
				txt += fmt.Sprintf("\nhealth columns written to %s\n", *healthCSV)
			}
			return txt, nil
		})
	}

	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if mf != nil {
		if err := mf.Close(); err != nil {
			fatalf("manifest: %v", err)
		}
	}
}
