package kernels

import (
	"testing"

	"haccrg/internal/gpu"
)

// runBench builds and runs one benchmark on a fresh test device,
// verifying output where the benchmark defines a reference.
func runBench(t *testing.T, name string, p Params) *gpu.LaunchStats {
	t.Helper()
	bm := Get(name)
	if bm == nil {
		t.Fatalf("benchmark %s not registered", name)
	}
	dev, err := gpu.NewDevice(gpu.TestConfig(), bm.GlobalBytes(p.Scale), nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := bm.Build(dev, p)
	if err != nil {
		t.Fatalf("%s build: %v", name, err)
	}
	st, err := plan.Run(dev)
	if err != nil {
		t.Fatalf("%s run: %v", name, err)
	}
	if plan.Verify != nil {
		if err := plan.Verify(dev); err != nil {
			t.Fatalf("%s verify: %v", name, err)
		}
	}
	return st
}

func TestAllBenchmarksRunAndVerify(t *testing.T) {
	for _, bm := range All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			p := Params{Scale: 1}
			if bm.Name == "scan" || bm.Name == "kmeans" {
				p.SingleBlock = true // verify the designed-for configuration
			}
			st := runBench(t, bm.Name, p)
			t.Logf("%s: %d cycles, %d warp instrs, shared-rd %.2f%%, global-rd %.2f%%",
				bm.Name, st.Cycles, st.WarpInstrs, st.SharedReadPct(), st.GlobalReadPct())
		})
	}
}
