package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"haccrg/internal/harness"
	"haccrg/internal/journal"
)

// replayMain feeds a recorded event journal (haccrg -record, or
// RunOptions.Record) back through a race detector offline — no
// simulated device, no benchmark build — and checks the replayed
// verdict against the verdict the live run journaled. It exits 0 when
// they match or the journal holds no verdict to compare (a crashed
// run's), 3 when they differ:
//
//	haccrg replay -journal run.jnl
//	haccrg replay -journal run.jnl -detect grace-addr
//	haccrg replay -journal run.jnl -info
func replayMain(args []string) int {
	fs := flag.NewFlagSet("haccrg replay", flag.ExitOnError)
	var (
		journalPath = fs.String("journal", "", "journal file to replay (required)")
		detect      = fs.String("detect", "", "replay through this detector instead of the recorded one (off, shared, global, shared+global, sw-haccrg, grace-addr)")
		info        = fs.Bool("info", false, "describe the journal (meta, salvage, counts) without replaying")
		verbose     = fs.Bool("v", false, "print the full replayed verdict")
	)
	fs.Parse(args)
	if *journalPath == "" {
		fmt.Fprintln(os.Stderr, "haccrg: -journal required")
		fs.Usage()
		return exitUsage
	}

	f, err := os.Open(*journalPath)
	if err != nil {
		return fail(exitError, "", err)
	}
	defer f.Close()

	if *info {
		res, err := journal.Replay(f, nil)
		if err != nil {
			return fail(exitError, "", err)
		}
		printInfo(res)
		return exitOK
	}

	// First pass: pull the meta record so the detector can be rebuilt.
	// (Journals are small relative to the runs that made them; two
	// sequential reads beat holding every record in memory twice.)
	det, _, err := harness.DetectorForJournal(f, harness.DetectorKind(*detect))
	if err != nil {
		return specFailed(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fail(exitError, "", err)
	}

	res, err := journal.Replay(f, det)
	if err != nil {
		return fail(exitError, "", err)
	}
	printInfo(res)
	fmt.Printf("replayed through %s: %d race(s)\n", det.Name(), len(res.Replayed))
	if *verbose {
		for _, r := range res.Replayed {
			fmt.Println(" ", r)
		}
	}
	switch {
	case res.Recorded == nil:
		fmt.Println("no recorded verdict in journal (crashed or truncated run); nothing to compare")
	case res.Match:
		fmt.Println("MATCH: replayed verdict is byte-identical to the recorded one")
	default:
		fmt.Printf("MISMATCH: recorded %d race(s), replayed %d\n", len(res.Recorded), len(res.Replayed))
		if *detect != "" {
			fmt.Println("(expected when replaying through a different detector than the recorded one)")
		}
		return exitFound
	}
	return exitOK
}

func printInfo(res *journal.ReplayResult) {
	if res.Meta != nil {
		m := res.Meta
		fmt.Printf("run            %s (detector %s, scale %d)\n", m.Bench, m.Detector, m.Scale)
		if m.FaultPlan != "" {
			fmt.Printf("fault plan     %s (seed %d)\n", m.FaultPlan, m.FaultSeed)
		}
	}
	s := res.Salvage
	fmt.Printf("journal        %d record(s), %d bytes intact\n", s.Records, s.Bytes)
	if s.Truncated {
		fmt.Printf("damage         truncated: %s (salvaged prefix replayed)\n", s.Reason)
	}
	fmt.Printf("events         %d kernel(s), %d warp memory event(s)\n", res.Kernels, res.MemEvents)
	if res.Recorded != nil {
		fmt.Printf("recorded       %d race(s)\n", len(res.Recorded))
	}
}
