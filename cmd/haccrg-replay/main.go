// Command haccrg-replay feeds a recorded event journal (haccrg
// -record, or RunOptions.Record) back through a race detector offline
// — no simulated device, no benchmark build — and checks the replayed
// verdict against the verdict the live run journaled.
//
// Usage:
//
//	haccrg-replay -journal run.jnl
//	haccrg-replay -journal run.jnl -detect grace-addr
//	haccrg-replay -journal run.jnl -info
//
// Exit codes: 0 replay matches the recorded verdict (or no recorded
// verdict to compare, e.g. a crashed run's journal); 3 the verdicts
// differ; 1 failure; 2 usage.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"haccrg/internal/harness"
	"haccrg/internal/journal"
	"haccrg/internal/version"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "haccrg-replay: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		journalPath = flag.String("journal", "", "journal file to replay (required)")
		detect      = flag.String("detect", "", "replay through this detector instead of the recorded one (off, shared, global, shared+global, sw-haccrg, grace-addr)")
		info        = flag.Bool("info", false, "describe the journal (meta, salvage, counts) without replaying")
		verbose     = flag.Bool("v", false, "print the full replayed verdict")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("haccrg-replay"))
		return
	}
	if *journalPath == "" {
		fmt.Fprintln(os.Stderr, "haccrg-replay: -journal required")
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*journalPath)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()

	if *info {
		res, err := journal.Replay(f, nil)
		if err != nil {
			fatalf("%v", err)
		}
		printInfo(res)
		return
	}

	// First pass: pull the meta record so the detector can be rebuilt.
	// (Journals are small relative to the runs that made them; two
	// sequential reads beat holding every record in memory twice.)
	det, _, err := harness.DetectorForJournal(f, harness.DetectorKind(*detect))
	if err != nil {
		fatalf("%v", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		fatalf("%v", err)
	}

	res, err := journal.Replay(f, det)
	if err != nil {
		fatalf("%v", err)
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
		os.Exit(3)
	}
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
