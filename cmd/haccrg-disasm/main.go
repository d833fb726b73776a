// Command haccrg-disasm prints the assembled programs of a benchmark's
// kernels — useful for inspecting the ISA-level structure (barrier
// placement, critical-section markers, divergent branches with their
// reconvergence points) and for understanding race reports, whose PCs
// index into this listing.
//
// Usage:
//
//	haccrg-disasm -bench reduce
//	haccrg-disasm -bench reduce -inject reduce.fence0   # see the fence vanish
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"haccrg"
	"haccrg/internal/harness"
	"haccrg/internal/version"
)

func main() {
	var (
		bench       = flag.String("bench", "", "benchmark whose kernels to disassemble")
		inject      = flag.String("inject", "", "comma-separated injection site IDs to apply first")
		single      = flag.Bool("single-block", false, "use the designed-for SCAN/KMEANS launch")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("haccrg-disasm"))
		return
	}
	if *bench == "" {
		fmt.Fprintln(os.Stderr, "haccrg-disasm: -bench required")
		os.Exit(2)
	}
	small := haccrg.SmallGPU()
	rc := harness.RunConfig{Bench: *bench, Scale: 1, SingleBlock: *single, GPU: &small}
	if *inject != "" {
		rc.Inject = strings.Split(*inject, ",")
	}
	ks, err := rc.Kernels()
	if errors.Is(err, harness.ErrUnknown) {
		fmt.Fprintf(os.Stderr, "haccrg-disasm: %v\n", err)
		os.Exit(2)
	}
	if err != nil {
		fatalf("%v", err)
	}
	for _, k := range ks {
		fmt.Printf("kernel %s  <<<grid %d x block %d, %dB shared, %d params>>>\n",
			k.Name, k.GridDim, k.BlockDim, k.SharedBytes, len(k.Params))
		// Re-validate explicitly: builder output is always valid, but a
		// defect here should print the typed diagnosis, not a bare string.
		if err := k.Prog.Validate(); err != nil {
			var verr *haccrg.ValidateError
			if errors.As(err, &verr) {
				fmt.Fprintf(os.Stderr, "haccrg-disasm: %s: INVALID [%s] at pc %d: %s\n",
					verr.Program, verr.Kind, verr.PC, verr.Detail)
			} else {
				fmt.Fprintf(os.Stderr, "haccrg-disasm: %s: INVALID: %v\n", k.Name, err)
			}
		}
		fmt.Println(k.Prog.Disassemble())
	}
}

// fatalf reports an error and exits non-zero; CLI failures are error
// messages, never panics.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "haccrg-disasm: "+format+"\n", args...)
	os.Exit(1)
}
