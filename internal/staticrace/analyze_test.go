package staticrace_test

import (
	"reflect"
	"testing"

	"haccrg/internal/gpu"
	"haccrg/internal/isa"
	"haccrg/internal/kernels"
	"haccrg/internal/staticrace"
)

func testConf() staticrace.Config {
	return staticrace.Config{WarpSize: 32, SharedGranularity: 4, GlobalGranularity: 4}
}

// planFor builds a benchmark's launch plan on a small device.
func planFor(t testing.TB, name string, p kernels.Params) *kernels.Plan {
	t.Helper()
	bm := kernels.Get(name)
	if bm == nil {
		t.Fatalf("unknown benchmark %q", name)
	}
	cfg := gpu.TestConfig()
	dev, err := gpu.NewDevice(cfg, bm.GlobalBytes(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := bm.Build(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestCleanBenchmarksHaveNoFindings is the analyzer's false-positive
// gate: every clean built-in benchmark must analyze without findings.
func TestCleanBenchmarksHaveNoFindings(t *testing.T) {
	for _, bm := range kernels.All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			plan := planFor(t, bm.Name, kernels.Params{})
			for _, k := range plan.Kernels {
				res, err := staticrace.Analyze(k, testConf())
				if err != nil {
					t.Fatalf("kernel %s: %v", k.Name, err)
				}
				for _, f := range res.Findings {
					t.Errorf("kernel %s pc %d: unexpected [%s] %s", k.Name, f.PC, f.Pass, f.Msg)
				}
			}
		})
	}
}

// TestDefectiveFixturesFlag: each deliberately-defective fixture must
// raise at least one finding from the matching pass.
func TestDefectiveFixturesFlag(t *testing.T) {
	want := map[string]string{
		"baddiv":   staticrace.PassBarrierDivergence,
		"badfence": staticrace.PassFenceMisuse,
		"badoob":   staticrace.PassSharedOOB,
	}
	for name, pass := range want {
		t.Run(name, func(t *testing.T) {
			plan := planFor(t, name, kernels.Params{})
			found := false
			for _, k := range plan.Kernels {
				res, err := staticrace.Analyze(k, testConf())
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range res.Findings {
					t.Logf("pc %d: [%s] %s", f.PC, f.Pass, f.Msg)
					if f.Pass == pass {
						found = true
					}
				}
			}
			if !found {
				t.Errorf("fixture %s: no %s finding", name, pass)
			}
		})
	}
}

// TestProverClassifiesPsum pins the prover's headline result: psum's
// grid-stride input loads and per-thread output stores are provably
// race-free, so the detector can skip them.
func TestProverClassifiesPsum(t *testing.T) {
	plan := planFor(t, "psum", kernels.Params{})
	filterable, total := 0, 0
	for _, k := range plan.Kernels {
		res, err := staticrace.Analyze(k, testConf())
		if err != nil {
			t.Fatal(err)
		}
		var pcs []int
		for pc, ok := range res.Filterable {
			if ok {
				pcs = append(pcs, pc)
			}
		}
		t.Logf("kernel %s: filtered pcs %v", k.Name, pcs)
		if len(pcs) == 0 {
			t.Errorf("kernel %s: expected at least one filterable site", k.Name)
		}
		for _, s := range res.Sites {
			total++
			if res.Filterable[s.PC] {
				filterable++
			}
		}
	}
	t.Logf("filterable %d / %d sites", filterable, total)
	if filterable == 0 {
		t.Fatal("no filterable sites in psum")
	}
}

// TestCFGPartition: every instruction of every built-in kernel lands
// in exactly one basic block.
func TestCFGPartition(t *testing.T) {
	for _, bm := range kernels.AllIncludingDefective() {
		plan := planFor(t, bm.Name, kernels.Params{})
		for _, k := range plan.Kernels {
			g, err := staticrace.BuildCFG(k.Prog)
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			covered := make([]int, len(k.Prog.Code))
			for _, b := range g.Blocks {
				if b.Start >= b.End {
					t.Fatalf("%s: empty block %d", k.Name, b.Index)
				}
				for pc := b.Start; pc < b.End; pc++ {
					covered[pc]++
				}
			}
			for pc, n := range covered {
				if n != 1 {
					t.Fatalf("%s: pc %d in %d blocks", k.Name, pc, n)
				}
			}
		}
	}
}

// TestAnalyzeDivergentBarrierDirect exercises the barrier lint on a
// hand-built program (independent of the fixture registration).
func TestAnalyzeDivergentBarrierDirect(t *testing.T) {
	b := isa.NewBuilder("divbar")
	b.Sreg(1, isa.SregTid)
	b.Setpi(0, isa.CmpLT, 1, 16)
	b.If(0)
	b.Bar()
	b.EndIf()
	prog := b.MustBuild()
	k := &gpu.Kernel{Name: "divbar", Prog: prog, GridDim: 1, BlockDim: 64, SharedBytes: 0}
	res, err := staticrace.Analyze(k, testConf())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range res.Findings {
		if f.Pass == staticrace.PassBarrierDivergence {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected barrier-divergence finding, got %+v", res.Findings)
	}
	// The same program with a uniform condition must be clean.
	b2 := isa.NewBuilder("unibar")
	b2.Sreg(1, isa.SregCtaid)
	b2.Setpi(0, isa.CmpEQ, 1, 0)
	b2.If(0)
	b2.Bar()
	b2.EndIf()
	k2 := &gpu.Kernel{Name: "unibar", Prog: b2.MustBuild(), GridDim: 2, BlockDim: 64}
	res2, err := staticrace.Analyze(k2, testConf())
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Findings) != 0 {
		t.Fatalf("uniform barrier flagged: %+v", res2.Findings)
	}
}

// TestAnalyzeTiedFindingsOrdered: a BAR inside `if tid < 8` inside
// `if tid < 16` draws one barrier-divergence finding per enclosing
// branch, both at the BAR's pc. Every analysis must list the tied
// findings in one order.
func TestAnalyzeTiedFindingsOrdered(t *testing.T) {
	b := isa.NewBuilder("nestbar")
	b.Sreg(1, isa.SregTid)
	b.Setpi(0, isa.CmpLT, 1, 16)
	b.If(0)
	b.Setpi(1, isa.CmpLT, 1, 8)
	b.If(1)
	b.Bar()
	b.EndIf()
	b.EndIf()
	k := &gpu.Kernel{Name: "nestbar", Prog: b.MustBuild(), GridDim: 1, BlockDim: 64}
	var first []staticrace.Finding
	for i := 0; i < 50; i++ {
		res, err := staticrace.Analyze(k, testConf())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Findings
			n := 0
			for _, f := range first {
				if f.Pass == staticrace.PassBarrierDivergence && f.PC == first[0].PC {
					n++
				}
			}
			if n != 2 {
				t.Fatalf("want two barrier-divergence findings at one pc, got %+v", first)
			}
			continue
		}
		if !reflect.DeepEqual(res.Findings, first) {
			t.Fatalf("analysis %d lists\n%+v\nthe first listed\n%+v", i, res.Findings, first)
		}
	}
}

// TestNegativeSharedOffsetWitnessed: a store at shared offset -4 wraps
// to a huge unsigned offset, and so does the end of the access. The
// replay must place it outside the window, so the shared-oob finding
// ships with a verified witness and error severity.
func TestNegativeSharedOffsetWitnessed(t *testing.T) {
	b := isa.NewBuilder("negshared")
	b.Movi(4, -4)
	b.Movi(5, 77)
	b.St(isa.SpaceShared, 4, 0, 5, 4)
	b.Exit()
	k := &gpu.Kernel{Name: "negshared", Prog: b.MustBuild(), GridDim: 2, BlockDim: 32, SharedBytes: 256}
	res, err := staticrace.Analyze(k, testConf())
	if err != nil {
		t.Fatal(err)
	}
	witnessed := false
	for _, w := range res.Witnesses {
		if w.Kind == staticrace.WitnessOOB && w.PC == 2 && w.Verified {
			witnessed = true
		}
	}
	severity := ""
	for _, f := range res.Findings {
		if f.Pass == staticrace.PassSharedOOB && f.PC == 2 {
			severity = f.Severity
		}
	}
	if !witnessed || severity != "error" {
		t.Fatalf("oob witness shipped: %v, shared-oob finding severity %q; want a verified witness and \"error\"\nfindings: %+v\nwitnesses: %+v",
			witnessed, severity, res.Findings, res.Witnesses)
	}
}
