package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"

	"haccrg/internal/gpu"
	"haccrg/internal/harness"
	"haccrg/internal/tlb"
)

// An experiment is one table, figure or study bench can print; the
// ones that simulate run their configurations through the sweep.
type experiment struct {
	selected bool
	title    string
	run      func(sw harness.Sweep) (string, error)
}

// benchMain regenerates the paper's evaluation — every table and
// figure of "HAccRG: Hardware-Accelerated Data Race Detection in GPUs"
// (ICPP 2013), from the hardware-parameter table through the
// performance and bandwidth studies — plus the extension studies:
//
//	haccrg bench -all
//	haccrg bench -table 3
//	haccrg bench -fig 7 -scale 2
//	haccrg bench -exp injected
func benchMain(args []string) (code int) {
	fs := flag.NewFlagSet("haccrg bench", flag.ExitOnError)
	// The guard rails bind into the sweep, which merges them into every
	// run; -seed is the fault study's.
	var rails harness.RunConfig
	parallel := bindGuardRails(fs, &rails)
	var (
		all       = fs.Bool("all", false, "run every experiment")
		tableNum  = fs.Int("table", 0, "regenerate one table (1-4)")
		figNum    = fs.Int("fig", 0, "regenerate one figure (7-9)")
		exp       = fs.String("exp", "", "named experiment: races, injected, bloom, ids, hw, tlb, regroup, bloom-e2e, syncid, sched, faults")
		scale     = fs.Int("scale", 2, "input scale factor for timed experiments")
		healthCSV = fs.String("health-csv", "", "write the fault study's health columns to this CSV file")

		manifest = fs.String("manifest", "", "journal completed sweep runs to this file (crash-safe; see -resume)")
		resume   = fs.Bool("resume", false, "with -manifest: serve already-completed runs from the manifest instead of re-simulating them")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	fs.Parse(args)

	experiments := []experiment{
		{*tableNum == 1, "Table I: GPU hardware parameters", func(harness.Sweep) (string, error) {
			return harness.Table1(gpu.DefaultConfig()), nil
		}},
		{*tableNum == 2, "Table II: benchmarks and instruction mix", func(sw harness.Sweep) (string, error) {
			_, txt, err := sw.Table2(*scale)
			return txt, err
		}},
		{*tableNum == 3, "Table III: false races vs tracking granularity", func(sw harness.Sweep) (string, error) {
			_, _, txt, err := sw.Table3(1)
			return txt, err
		}},
		{*tableNum == 4, "Table IV: global shadow memory overhead", func(harness.Sweep) (string, error) {
			_, txt, err := harness.Table4(*scale)
			return txt, err
		}},
		{*figNum == 7, "Figure 7: performance impact of race detection", func(sw harness.Sweep) (string, error) {
			_, txt, err := sw.Fig7(*scale)
			return txt, err
		}},
		{*figNum == 8, "Figure 8: shared shadow entries in global memory", func(sw harness.Sweep) (string, error) {
			_, txt, err := sw.Fig8(*scale)
			return txt, err
		}},
		{*figNum == 9, "Figure 9: DRAM bandwidth utilization", func(sw harness.Sweep) (string, error) {
			_, txt, err := sw.Fig9(*scale)
			return txt, err
		}},
		{*exp == "races", "Section VI-A: races in unmodified benchmarks", func(sw harness.Sweep) (string, error) {
			_, txt, err := sw.RealRaces(1)
			return txt, err
		}},
		{*exp == "injected", "Section VI-A: 41 injected races", func(sw harness.Sweep) (string, error) {
			_, txt, err := sw.Injected(1)
			return txt, err
		}},
		{*exp == "bloom", "Section VI-A2: Bloom-filter signature accuracy", func(harness.Sweep) (string, error) {
			return harness.BloomStress(), nil
		}},
		{*exp == "ids", "Section VI-A2: sync/fence logical-clock usage", func(sw harness.Sweep) (string, error) {
			return sw.IDUsage(1)
		}},
		{*exp == "hw", "Section VI-C2: hardware overhead", func(harness.Sweep) (string, error) {
			return harness.HardwareCost(), nil
		}},
		{*exp == "tlb", "Section IV-B: virtual-memory shadow translation (extension)", func(harness.Sweep) (string, error) {
			_, txt, err := harness.TLBStudy(1, tlb.DefaultConfig)
			return txt, err
		}},
		{*exp == "regroup", "Section III-A: warp re-grouping ablation (extension)", func(harness.Sweep) (string, error) {
			_, _, txt, err := harness.WarpRegroupStudy()
			return txt, err
		}},
		{*exp == "bloom-e2e", "Section VI-A2: lockset signatures end-to-end (extension)", func(harness.Sweep) (string, error) {
			return harness.BloomEndToEnd()
		}},
		{*exp == "sched", "Warp scheduling ablation: round-robin vs GTO (extension)", func(sw harness.Sweep) (string, error) {
			return sw.SchedulerStudy(1)
		}},
		{*exp == "syncid", "Section IV-B: sync-ID increment gating ablation (extension)", func(sw harness.Sweep) (string, error) {
			return sw.SyncIDGatingStudy(1)
		}},
		{*exp == "faults", "Fault injection: RDU degradation study (extension)", func(sw harness.Sweep) (string, error) {
			rows, txt, err := sw.FaultStudy(1, rails.FaultSeed)
			if err != nil || *healthCSV == "" {
				return txt, err
			}
			f, err := os.Create(*healthCSV)
			if err != nil {
				return "", err
			}
			defer f.Close()
			if err := harness.WriteFaultStudyCSV(f, rows); err != nil {
				return "", err
			}
			return txt + fmt.Sprintf("\nhealth columns written to %s\n", *healthCSV), nil
		}},
	}
	if *all {
		for i := range experiments {
			experiments[i].selected = true
		}
	}
	if !slices.ContainsFunc(experiments, func(e experiment) bool { return e.selected }) {
		fs.Usage()
		return exitUsage
	}
	if *resume && *manifest == "" {
		return fail(exitUsage, "", errors.New("-resume requires -manifest"))
	}

	// SIGINT/SIGTERM cancel every in-flight sweep run through the
	// sweep's context; completed runs are already synced to the
	// manifest, so the sweep exits with resumable state.
	ctx, stop := signalContext()
	defer stop()
	sw := harness.Sweep{Ctx: ctx, MaxCycles: rails.MaxCycles, Timeout: rails.Timeout, Workers: *parallel}
	if *manifest != "" {
		m, salvage, err := harness.OpenManifest(*manifest, *resume)
		if err != nil {
			return fail(exitError, "manifest", err)
		}
		// Every completed run is already synced to the manifest; closing
		// it ends the journal at a frame boundary whatever the outcome.
		defer func() {
			if err := m.Close(); err != nil && code == exitOK {
				code = fail(exitError, "manifest", err)
			}
		}()
		sw.Manifest = m
		if *resume {
			note := ""
			if salvage.Truncated {
				note = fmt.Sprintf(" (torn tail dropped: %s)", salvage.Reason)
			}
			fmt.Fprintf(os.Stderr, "haccrg: resuming: %d completed run(s) recovered from %s%s\n",
				m.Len(), *manifest, note)
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(exitError, "-cpuprofile", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(exitError, "-cpuprofile", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeHeapProfile(*memProfile); err != nil && code == exitOK {
				code = fail(exitError, "-memprofile", err)
			}
		}()
	}

	for _, e := range experiments {
		if !e.selected {
			continue
		}
		fmt.Printf("==== %s ====\n", e.title)
		txt, err := e.run(sw)
		if err != nil {
			// An interrupt is resumable state, not a failure.
			if ctx.Err() != nil || errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "haccrg: interrupted during %q: %v\n", e.title, err)
				if sw.Manifest != nil {
					fmt.Fprintf(os.Stderr, "haccrg: %d completed run(s) saved; rerun with -manifest %s -resume\n",
						sw.Manifest.Len(), sw.Manifest.Path())
				}
				return exitInterrupted
			}
			return runFailed(err)
		}
		fmt.Println(txt)
	}
	return exitOK
}

// writeHeapProfile writes a heap profile of the settled live data.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the profile reflects live data
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
