package haccrg

import (
	"strings"
	"testing"

	"haccrg/internal/isa"
)

func TestRunBenchmarkBasics(t *testing.T) {
	small := SmallGPU()
	res, err := RunBenchmark("reduce", RunOptions{GPU: &small, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles <= 0 {
		t.Fatal("no cycles")
	}
	if res.Races != nil {
		t.Fatal("races without detection enabled")
	}
}

func TestRunBenchmarkUnknown(t *testing.T) {
	if _, err := RunBenchmark("missing", RunOptions{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRunBenchmarkWithDetection(t *testing.T) {
	small := SmallGPU()
	opt := DefaultDetection()
	opt.SharedGranularity = 4
	res, err := RunBenchmark("scan", RunOptions{GPU: &small, Detection: &opt})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) == 0 {
		t.Fatal("scan's documented multi-block bug not detected through the facade")
	}
	for _, r := range res.Races {
		if r.Category != CatCrossBlock && r.Category != CatFence && r.Category != CatStaleL1 {
			t.Errorf("unexpected category %v for scan", r.Category)
		}
	}
}

func TestRunBenchmarkInjection(t *testing.T) {
	small := SmallGPU()
	opt := DefaultDetection()
	res, err := RunBenchmark("psum", RunOptions{
		GPU: &small, Detection: &opt, Inject: []string{"psum.fence0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	fence := false
	for _, r := range res.Races {
		if r.Category == CatFence {
			fence = true
		}
	}
	if !fence {
		t.Fatalf("fence injection not detected: %v", res.Races)
	}
}

// TestRunBenchmarkUnknownSite: an injection ID that names no site of
// the benchmark is an error, not a silent no-op.
func TestRunBenchmarkUnknownSite(t *testing.T) {
	small := SmallGPU()
	opt := DefaultDetection()
	for _, id := range []string{"reduce.fenc0", "psum.fence0"} {
		_, err := RunBenchmark("reduce", RunOptions{GPU: &small, Detection: &opt, Inject: []string{id}})
		if err == nil || !strings.Contains(err.Error(), "reduce.fence0") {
			t.Errorf("inject %s: err = %v, want a rejection listing reduce's sites", id, err)
		}
	}
}

func TestBenchmarkRegistry(t *testing.T) {
	all := Benchmarks()
	if len(all) != 10 {
		t.Fatalf("expected the paper's 10 benchmarks, got %d", len(all))
	}
	if GetBenchmark("hash") == nil || GetBenchmark("nope") != nil {
		t.Fatal("registry lookups broken")
	}
}

func TestCustomKernelThroughFacade(t *testing.T) {
	det := MustNewDetector(DefaultDetection())
	dev := MustNewDevice(SmallGPU(), 1<<16, det)

	b := NewKernelBuilder("custom")
	b.Sreg(1, isa.SregGtid)
	b.Ldp(2, 0)
	b.Muli(3, 1, 4)
	b.Add(2, 2, 3)
	b.St(isa.SpaceGlobal, 2, 0, 1, 4)
	b.Exit()
	out := dev.MustMalloc(1024)
	st, err := dev.Launch(&Kernel{
		Name: "custom", Prog: b.MustBuild(),
		GridDim: 4, BlockDim: 64, Params: []uint64{out},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.GlobalWrites != 256 {
		t.Fatalf("writes = %d, want 256", st.GlobalWrites)
	}
	if got := dev.Global.U32(int(out)/4 + 100); got != 100 {
		t.Fatalf("out[100] = %d", got)
	}
	if len(det.Races()) != 0 {
		t.Fatalf("disjoint writes raced: %v", det.Races()[0])
	}
}

func TestExperimentsExposed(t *testing.T) {
	if Experiments.Table1(DefaultGPU()) == "" {
		t.Fatal("Table1 empty")
	}
	if Experiments.BloomStress() == "" {
		t.Fatal("BloomStress empty")
	}
	if Experiments.HardwareCost() == "" {
		t.Fatal("HardwareCost empty")
	}
}
