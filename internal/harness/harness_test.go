package harness

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"haccrg/internal/gpu"
	"haccrg/internal/kernels"
)

// testGPU returns a small device so harness tests stay fast.
func testGPU() *gpu.Config {
	cfg := gpu.TestConfig()
	return &cfg
}

func TestRunUnknownBenchmark(t *testing.T) {
	if _, err := ExecContext(context.Background(), RunConfig{Bench: "nope"}, ExecOptions{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := ExecContext(context.Background(), RunConfig{Bench: "scan", Detector: "bogus"}, ExecOptions{}); err == nil {
		t.Fatal("unknown detector accepted")
	}
}

func TestRunAllDetectorKinds(t *testing.T) {
	kinds := []DetectorKind{DetOff, DetShared, DetGlobal, DetSharedGlobal, DetFig8, DetSoftware, DetGRace}
	for _, k := range kinds {
		r, err := ExecContext(context.Background(), RunConfig{Bench: "scan", Detector: k, GPU: testGPU(), SingleBlock: true}, ExecOptions{})
		if err != nil {
			t.Fatalf("detector %s: %v", k, err)
		}
		if r.Stats.Cycles <= 0 {
			t.Errorf("detector %s: no cycles", k)
		}
	}
}

func TestDetectionOverheadOrdering(t *testing.T) {
	// For a shared-memory benchmark: off <= shared-hw <= software, and
	// GRace slowest of all.
	var cycles []int64
	for _, k := range []DetectorKind{DetOff, DetShared, DetSoftware, DetGRace} {
		r, err := ExecContext(context.Background(), RunConfig{Bench: "scan", Detector: k, GPU: testGPU(), SingleBlock: true}, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cycles = append(cycles, r.Stats.Cycles)
	}
	for i := 1; i < len(cycles); i++ {
		if cycles[i] < cycles[i-1] {
			t.Fatalf("overhead ordering violated: %v", cycles)
		}
	}
	if float64(cycles[3]) < 5*float64(cycles[2]) {
		t.Errorf("GRace (%d cycles) should be far slower than sw-haccrg (%d)", cycles[3], cycles[2])
	}
}

// TestVerifyHelper: a detection-off run with Verify checks the
// kernels' output against the host reference.
func TestVerifyHelper(t *testing.T) {
	verify := func(rc RunConfig) error {
		_, err := ExecContext(context.Background(), rc, ExecOptions{Verify: true})
		return err
	}
	if err := verify(RunConfig{Bench: "reduce", Scale: 1}); err != nil {
		t.Fatalf("reduce verify: %v", err)
	}
	if err := verify(RunConfig{Bench: "scan", Scale: 1, SingleBlock: true}); err != nil {
		t.Fatalf("scan single-block verify: %v", err)
	}
	if err := verify(RunConfig{Bench: "nope", Scale: 1}); err == nil {
		t.Fatal("unknown benchmark verified")
	}
}

func TestTable1Renders(t *testing.T) {
	txt := Table1(gpu.DefaultConfig())
	for _, want := range []string{"# SMs", "30", "shared memory per SM", "16KB"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Table1 missing %q:\n%s", want, txt)
		}
	}
}

func TestBloomStressRenders(t *testing.T) {
	txt := BloomStress()
	for _, want := range []string{"8-bit / 2 bins", "25.00%", "16-bit / 2 bins", "12.50%", "6.25%"} {
		if !strings.Contains(txt, want) {
			t.Errorf("BloomStress missing %q:\n%s", want, txt)
		}
	}
}

func TestHardwareCostRenders(t *testing.T) {
	txt := HardwareCost()
	// 39/49/52 mirror the packed global word: base fields, +fence ID,
	// +atomic bloom signature (see internal/core/packed.go).
	for _, want := range []string{"12 bits", "39/49/52 bits", "race register file"} {
		if !strings.Contains(txt, want) {
			t.Errorf("HardwareCost missing %q:\n%s", want, txt)
		}
	}
}

func TestInjectedSmallDevice(t *testing.T) {
	// The full 41-site study on the big device is exercised by the
	// kernels package tests; here just spot-check the harness flow on
	// one site per kind.
	sites := map[string]kernels.InjectKind{
		"scan.bar0":   kernels.InjRemoveBarrier,
		"psum.fence0": kernels.InjRemoveFence,
		"hash.crit0":  kernels.InjDummyCritical,
		"hist.dummy0": kernels.InjDummyCross,
	}
	for id := range sites {
		bench := strings.SplitN(id, ".", 2)[0]
		rc := RunConfig{
			Bench: bench, Detector: DetSharedGlobal, GPU: testGPU(),
			SharedGranularity: 4, GlobalGranularity: 4,
			Inject: []string{id},
		}
		if bench == "scan" {
			rc.SingleBlock = true
		}
		r, err := ExecContext(context.Background(), rc, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if r.SharedSites+r.GlobalSites == 0 {
			t.Errorf("injection %s produced no races", id)
		}
	}
}

func TestWarpRegroupStudy(t *testing.T) {
	aware, regroup, txt, err := WarpRegroupStudy()
	if err != nil {
		t.Fatal(err)
	}
	if aware != 0 {
		t.Errorf("warp-aware mode reported %d races for lockstep accesses, want 0", aware)
	}
	if regroup == 0 {
		t.Error("re-grouping mode should report intra-warp granule sharing")
	}
	if txt == "" {
		t.Error("empty study text")
	}
}

func TestBloomEndToEnd(t *testing.T) {
	txt, err := BloomEndToEnd()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(txt, "(!)") {
		t.Errorf("detection counts not monotone in signature size:\n%s", txt)
	}
}

func TestSyncIDGatingStudy(t *testing.T) {
	txt, err := Sweep{}.SyncIDGatingStudy(1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt, "scan") {
		t.Errorf("study missing benchmarks:\n%s", txt)
	}
}

func TestTLBStudy(t *testing.T) {
	results, txt, err := TLBStudy(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 || txt == "" {
		t.Fatalf("expected 10 benchmark rows, got %d", len(results))
	}
	for _, r := range results {
		if r.Accesses == 0 {
			t.Errorf("%s: empty address trace", r.Bench)
		}
		if r.Separate.Cycles > r.Appended.Cycles {
			t.Errorf("%s: separate shadow TLB slower than appended-bit (%d vs %d)",
				r.Bench, r.Separate.Cycles, r.Appended.Cycles)
		}
	}
}

func TestSchedulerStudy(t *testing.T) {
	txt, err := Sweep{}.SchedulerStudy(1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt, "round-robin") {
		t.Fatalf("study output malformed:\n%s", txt)
	}
}

// TestRaceFreeReportEncodesNullRaces: the JSON report of a run with no
// races encodes "races": null, as it always has; a report that sized
// its race list up front would encode [] instead, which no output pin
// would catch.
func TestRaceFreeReportEncodesNullRaces(t *testing.T) {
	rc := RunConfig{Bench: "scan", SingleBlock: true, Detector: DetSharedGlobal, GPU: testGPU()}
	res, err := ExecContext(context.Background(), rc, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) != 0 {
		t.Fatalf("single-block scan reported %d races", len(res.Races))
	}
	var js strings.Builder
	if err := res.Report.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"races": null`) {
		t.Errorf("race-free report does not encode \"races\": null:\n%s", js.String())
	}
}

// TestRaceGroupsMatchPerRaceFormatting: over the races of the ten
// Table II benchmarks at scale 1 on the Table I machine, RaceGroups
// equals counting each race under its own space/kind/category string.
func TestRaceGroupsMatchPerRaceFormatting(t *testing.T) {
	groups := 0
	for _, bm := range kernels.All() {
		rc := RunConfig{Bench: bm.Name, Scale: 1, Detector: DetSharedGlobal}
		res, err := ExecContext(context.Background(), rc, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		want := make(map[string]int)
		for _, r := range res.Races {
			want[r.Space.String()+"/"+r.Kind.String()+"/"+r.Category.String()]++
		}
		if !reflect.DeepEqual(res.Groups, want) {
			t.Errorf("%s: RaceGroups = %v, want %v", bm.Name, res.Groups, want)
		}
		groups += len(want)
	}
	if groups < 2 {
		t.Fatalf("the suite's races fall in %d groups; the comparison needs several", groups)
	}
}
