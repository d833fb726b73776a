package swdetect

import (
	"testing"

	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// mustNew is New failing the test on error.
func mustNew(t testing.TB, opt core.Options) *Detector {
	t.Helper()
	d, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// racyKernel: two blocks write the same global words.
func racyKernel(out uint64) *gpu.Kernel {
	b := isa.NewBuilder("racy")
	b.Sreg(1, isa.SregTid)
	b.Ldp(2, 0)
	b.Muli(3, 1, 4)
	b.Add(2, 2, 3)
	b.St(isa.SpaceGlobal, 2, 0, 1, 4)
	b.Exit()
	return &gpu.Kernel{Name: "racy", Prog: b.MustBuild(), GridDim: 2, BlockDim: 32, Params: []uint64{out}}
}

func opts() core.Options {
	o := core.DefaultOptions()
	o.SharedGranularity = 4
	return o
}

func TestDetectsSameRacesAsHardware(t *testing.T) {
	sw := mustNew(t, opts())
	dev := gpu.MustNewDevice(gpu.TestConfig(), 1<<16, sw)
	out := dev.MustMalloc(256)
	if _, err := dev.Launch(racyKernel(out)); err != nil {
		t.Fatal(err)
	}
	if len(sw.Races()) == 0 {
		t.Fatal("software build detected no races")
	}
	for _, r := range sw.Races() {
		if r.Category != core.CatCrossBlock {
			t.Errorf("unexpected race category: %v", r)
		}
	}
}

func TestInstrumentationSlowsExecution(t *testing.T) {
	run := func(det gpu.Detector) int64 {
		dev := gpu.MustNewDevice(gpu.TestConfig(), 1<<16, det)
		out := dev.MustMalloc(256)
		st, err := dev.Launch(racyKernel(out))
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	base := run(nil)
	hw := run(core.MustNew(opts()))
	sw := mustNew(t, opts())
	swc := run(sw)
	if swc <= hw || swc <= base {
		t.Fatalf("software instrumentation should be the slowest: base %d, hw %d, sw %d", base, hw, swc)
	}
	if sw.InstrStallCycles == 0 {
		t.Error("no instrumentation stall recorded")
	}
	// The shadow updates go through the demand path and stall the warp
	// beyond the inline ALU charge alone: two warps, one store each.
	cfg := gpu.TestConfig()
	if alu := 2 * aluPerAccess * cfg.IssueInterval(); sw.InstrStallCycles <= alu {
		t.Errorf("shadow demand traffic added no stall: %d cycles, the ALU charge alone is %d", sw.InstrStallCycles, alu)
	}
}

func TestSpaceFiltering(t *testing.T) {
	o := opts()
	o.Global = false
	o.DetectStaleL1 = false
	sw := mustNew(t, o)
	dev := gpu.MustNewDevice(gpu.TestConfig(), 1<<16, sw)
	out := dev.MustMalloc(256)
	if _, err := dev.Launch(racyKernel(out)); err != nil {
		t.Fatal(err)
	}
	// Global detection disabled: no global instrumentation, no races.
	if len(sw.Races()) != 0 {
		t.Errorf("shared-only build reported global races: %v", sw.Races()[0])
	}
	if sw.InstrStallCycles != 0 {
		t.Errorf("shared-only build charged global instrumentation: %d", sw.InstrStallCycles)
	}
}

func TestInvalidOptionsRejected(t *testing.T) {
	if _, err := New(core.Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
}
