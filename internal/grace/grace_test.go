package grace

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

// sharedRaceKernel: warp 0 writes shared, warp 1 reads it, no barrier.
func sharedRaceKernel() *gpu.Kernel {
	b := isa.NewBuilder("sr")
	b.Sreg(1, isa.SregTid)
	b.Setpi(0, isa.CmpLT, 1, 32)
	b.If(0)
	b.Muli(2, 1, 4)
	b.St(isa.SpaceShared, 2, 0, 1, 4)
	b.EndIf()
	b.Setpi(1, isa.CmpGE, 1, 32)
	b.If(1)
	b.Subi(3, 1, 32)
	b.Muli(2, 3, 4)
	b.Ld(3, isa.SpaceShared, 2, 0, 4)
	b.EndIf()
	b.Exit()
	return &gpu.Kernel{Name: "sr", Prog: b.MustBuild(), GridDim: 1, BlockDim: 64, SharedBytes: 256}
}

func opts() core.Options {
	o := core.DefaultOptions()
	o.SharedGranularity = 4
	return o
}

func TestDetectsSharedRaces(t *testing.T) {
	g := mustNew(t, opts())
	dev := gpu.MustNewDevice(gpu.TestConfig(), 1<<16, g)
	if _, err := dev.Launch(sharedRaceKernel()); err != nil {
		t.Fatal(err)
	}
	if len(g.Races()) == 0 {
		t.Fatal("GRace model missed a shared race")
	}
}

func TestGRaceIgnoresGlobalMemory(t *testing.T) {
	b := isa.NewBuilder("g")
	b.Sreg(1, isa.SregTid)
	b.Ldp(2, 0)
	b.Muli(3, 1, 4)
	b.Add(2, 2, 3)
	b.St(isa.SpaceGlobal, 2, 0, 1, 4)
	b.Exit()
	k := &gpu.Kernel{Name: "g", Prog: b.MustBuild(), GridDim: 2, BlockDim: 32}

	g := mustNew(t, opts())
	dev := gpu.MustNewDevice(gpu.TestConfig(), 1<<16, g)
	out := dev.MustMalloc(256)
	k.Params = []uint64{out}
	if _, err := dev.Launch(k); err != nil {
		t.Fatal(err)
	}
	if len(g.Races()) != 0 {
		t.Errorf("GRace covers only shared memory, yet reported %v", g.Races()[0])
	}
	if g.LogBytes != 0 {
		t.Errorf("GRace logged global accesses: %d bytes", g.LogBytes)
	}
}

func TestLoggingAndScanCosts(t *testing.T) {
	run := func(det gpu.Detector) int64 {
		dev := gpu.MustNewDevice(gpu.TestConfig(), 1<<16, det)
		st, err := dev.Launch(sharedRaceKernel())
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	base := run(nil)
	g := mustNew(t, opts())
	graceCycles := run(g)
	if graceCycles <= base {
		t.Fatalf("GRace instrumentation free: %d vs %d", graceCycles, base)
	}
	if g.LogBytes <= 0 || g.LogBytes%recordBytes != 0 {
		t.Errorf("log accounting wrong: %d bytes, not a positive multiple of the %d-byte record", g.LogBytes, recordBytes)
	}
	if g.InstrStallCycles == 0 {
		t.Error("no bookkeeping stall modelled")
	}
}

func TestBarrierScanChargesPerRecord(t *testing.T) {
	// A kernel with a barrier: the scan cost appears as detector stall.
	b := isa.NewBuilder("bar")
	b.Sreg(1, isa.SregTid)
	b.Muli(2, 1, 4)
	b.St(isa.SpaceShared, 2, 0, 1, 4)
	b.Bar()
	b.Ld(3, isa.SpaceShared, 2, 0, 4)
	b.Exit()
	k := &gpu.Kernel{Name: "bar", Prog: b.MustBuild(), GridDim: 1, BlockDim: 64, SharedBytes: 256}

	g := mustNew(t, opts())
	dev := gpu.MustNewDevice(gpu.TestConfig(), 1<<16, g)
	st, err := dev.Launch(k)
	if err != nil {
		t.Fatal(err)
	}
	if st.DetectorStall == 0 {
		t.Error("barrier-time analysis cost not charged")
	}
	if len(g.Races()) != 0 {
		t.Errorf("barrier-synchronized kernel reported races: %v", g.Races()[0])
	}
}
