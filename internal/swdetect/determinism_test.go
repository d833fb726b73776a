package swdetect_test

import (
	"testing"

	"haccrg/internal/harness"
)

// TestRepeatedRunsIdentical: the software build's shadow transactions
// move partition and NoC state, so the order it issues them in is part
// of the simulated timing. Repeated runs of the same configuration must
// give the same cycles and instrumentation stall.
func TestRepeatedRunsIdentical(t *testing.T) {
	for _, bench := range []string{"hash", "kmeans"} {
		var cycles, stall int64
		for i := 0; i < 4; i++ {
			r, err := harness.Run(harness.RunConfig{Bench: bench, Detector: harness.DetSoftware, Scale: 1})
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && (r.Stats.Cycles != cycles || r.InstrStall != stall) {
				t.Fatalf("%s run %d: %d cycles, %d stall; run 0: %d cycles, %d stall",
					bench, i, r.Stats.Cycles, r.InstrStall, cycles, stall)
			}
			cycles, stall = r.Stats.Cycles, r.InstrStall
		}
	}
}
