package haccrg

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"haccrg/internal/bloom"
	"haccrg/internal/core"
	"haccrg/internal/harness"
	"haccrg/internal/isa"
	"haccrg/internal/journal"
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

// TestRunBenchmarkDetectionIsARunSpec: RunBenchmark accepts exactly the
// DetectionOptions a detector kind and its granularities reproduce.
// Every hardware kind, at granularities other than the paper's, records
// a journal that replays to its live verdict through the detector its
// meta record rebuilds. Every other shape is refused, naming the field,
// before a device is built or a journal byte written.
func TestRunBenchmarkDetectionIsARunSpec(t *testing.T) {
	small := SmallGPU()
	with := func(mod func(*DetectionOptions)) *DetectionOptions {
		opt := DefaultDetection()
		mod(&opt)
		return &opt
	}
	accepted := map[string]*DetectionOptions{
		"shared": with(func(o *DetectionOptions) {
			o.Global, o.DetectStaleL1, o.SharedGranularity, o.GlobalGranularity = false, false, 4, 8
		}),
		"global": with(func(o *DetectionOptions) {
			o.Shared, o.SharedGranularity, o.GlobalGranularity = false, 8, 16
		}),
		"shared+global": with(func(o *DetectionOptions) { o.SharedGranularity, o.GlobalGranularity = 8, 16 }),
		"shared-shadow-in-global": with(func(o *DetectionOptions) {
			o.SharedShadowInGlobal, o.SharedGranularity, o.GlobalGranularity = true, 32, 8
		}),
	}
	for kind, opt := range accepted {
		for _, bench := range []string{"scan", "reduce", "hist", "psum"} {
			var jnl bytes.Buffer
			res, err := RunBenchmark(bench, RunOptions{GPU: &small, Detection: opt, Record: &jnl})
			if err != nil {
				t.Fatalf("%s/%s: %v", bench, kind, err)
			}
			det, rc, err := harness.DetectorForJournal(bytes.NewReader(jnl.Bytes()), "")
			if err != nil {
				t.Fatal(err)
			}
			if string(rc.Detector) != kind {
				t.Errorf("%s/%s: journaled as %s", bench, kind, rc.Detector)
			}
			rep, err := journal.Replay(bytes.NewReader(jnl.Bytes()), det)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Match || len(rep.Replayed) != len(res.Races) {
				t.Errorf("%s/%s: %d live races, %d replayed, match %t", bench, kind, len(res.Races), len(rep.Replayed), rep.Match)
			}
		}
	}

	plan, err := ParseFaultPlan("queue:cap=16,drain=1")
	if err != nil {
		t.Fatal(err)
	}
	refused := map[string]*DetectionOptions{
		"WarpAware":     with(func(o *DetectionOptions) { o.WarpAware = false }),
		"Bloom":         with(func(o *DetectionOptions) { o.Bloom = bloom.Config{SizeBits: 32, Bins: 4} }),
		"ModelTraffic":  with(func(o *DetectionOptions) { o.ModelTraffic = false }),
		"DetectStaleL1": with(func(o *DetectionOptions) { o.DetectStaleL1 = false }),
		"Global": with(func(o *DetectionOptions) {
			o.SharedShadowInGlobal, o.Global, o.DetectStaleL1 = true, false, false
		}),
		"Fault":       with(func(o *DetectionOptions) { o.Fault = plan }),
		"FaultSeed":   with(func(o *DetectionOptions) { o.FaultSeed = 7 }),
		"Degradation": with(func(o *DetectionOptions) { o.Degradation = core.DegradeReinit }),
	}
	for field, opt := range refused {
		var jnl bytes.Buffer
		_, err := RunBenchmark("scan", RunOptions{GPU: &small, Detection: opt, Record: &jnl})
		if err == nil || !strings.Contains(err.Error(), "Detection: "+field+" ") {
			t.Errorf("%s: err = %v, want a refusal naming the field", field, err)
		}
		if jnl.Len() > 0 {
			t.Errorf("%s: %d journal bytes written before the refusal", field, jnl.Len())
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

// TestRunBenchmarkNegativeLimits: a negative scale, cycle budget or
// timeout is refused before anything runs, as the CLI and the daemon
// refuse it.
func TestRunBenchmarkNegativeLimits(t *testing.T) {
	small := SmallGPU()
	for _, opts := range []RunOptions{
		{GPU: &small, Scale: -1},
		{GPU: &small, MaxCycles: -5},
		{GPU: &small, Timeout: -time.Second},
	} {
		if res, err := RunBenchmark("scan", opts); err == nil || res != nil {
			t.Errorf("%+v: result %v, err %v; want a refusal", opts, res, err)
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

// TestIssueSlotsPinned pins LaunchStats.IssueSlots, the SM-cycles in
// which an SM holding warps had its issue pipeline free, for every
// Table II benchmark at scale 1 on the Table I machine under the
// paper's detection configuration. A scheduler step visits only the
// SMs that hold warps; an SM it skipped wrongly would drop slots here.
func TestIssueSlotsPinned(t *testing.T) {
	want := map[string]int64{
		"mcarlo": 63200, "scan": 5336, "fwalsh": 9344, "hist": 46740, "sortnw": 39562,
		"reduce": 40329, "psum": 67406, "offt": 6794, "kmeans": 303576, "hash": 1865,
	}
	det := DefaultDetection()
	for _, b := range Benchmarks() {
		res, err := RunBenchmark(b.Name, RunOptions{Detection: &det, Scale: 1})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if got := res.Stats.IssueSlots; got != want[b.Name] {
			t.Errorf("%s: IssueSlots = %d, want %d", b.Name, got, want[b.Name])
		}
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
