package gpu

import (
	"testing"

	"haccrg/internal/isa"
)

// schedKernel: each thread walks a private strided region so that the
// scheduling policy changes the L1 access pattern.
func schedKernel(buf uint64) *Kernel {
	b := isa.NewBuilder("sched")
	b.Sreg(rGtid, isa.SregGtid)
	b.Ldp(rBase, 0)
	b.Movi(rI, 0)
	b.Setpi(0, isa.CmpLT, rI, 32)
	b.While(0)
	b.Muli(rAddr, rI, 512)
	b.Muli(rTmp, rGtid, 4)
	b.Add(rAddr, rAddr, rTmp)
	b.Add(rAddr, rBase, rAddr)
	b.Ld(rVal, isa.SpaceGlobal, rAddr, 0, 4)
	b.Addi(rI, rI, 1)
	b.Setpi(0, isa.CmpLT, rI, 32)
	b.EndWhile()
	b.Exit()
	return &Kernel{Name: "sched", Prog: b.MustBuild(), GridDim: 4, BlockDim: 128, Params: []uint64{buf}}
}

func runSched(t *testing.T, pol SchedPolicy) *LaunchStats {
	t.Helper()
	cfg := TestConfig()
	cfg.Scheduler = pol
	d, err := NewDevice(cfg, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := d.MustMalloc(1 << 16)
	st, err := d.Launch(schedKernel(buf))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSchedulersBothComplete(t *testing.T) {
	rr := runSched(t, SchedRoundRobin)
	gto := runSched(t, SchedGTO)
	// Same functional work under both policies.
	if rr.GlobalReads != gto.GlobalReads || rr.ThreadInstrs != gto.ThreadInstrs {
		t.Fatalf("policies disagree on work: rr %d/%d reads/instrs, gto %d/%d",
			rr.GlobalReads, rr.ThreadInstrs, gto.GlobalReads, gto.ThreadInstrs)
	}
	if rr.Cycles <= 0 || gto.Cycles <= 0 {
		t.Fatal("empty run")
	}
	// The policies must actually schedule differently.
	if rr.Cycles == gto.Cycles && rr.L1.ReadMisses == gto.L1.ReadMisses {
		t.Log("note: policies coincided on this kernel (allowed, but unusual)")
	}
}

func TestSchedulerFunctionalEquivalence(t *testing.T) {
	// Both policies must produce identical results for a deterministic
	// data-parallel kernel.
	run := func(pol SchedPolicy) []byte {
		cfg := TestConfig()
		cfg.Scheduler = pol
		d, err := NewDevice(cfg, 1<<20, nil)
		if err != nil {
			t.Fatal(err)
		}
		in := d.MustMalloc(1024 * 4)
		out := d.MustMalloc(1024 * 4)
		for i := 0; i < 1024; i++ {
			d.Global.SetU32(int(in)/4+i, uint32(i*7))
		}
		if _, err := d.Launch(vecAddKernel(16, 64, in, out)); err != nil {
			t.Fatal(err)
		}
		img := make([]byte, 1024*4)
		copy(img, d.Global.Bytes()[out:out+1024*4])
		return img
	}
	a := run(SchedRoundRobin)
	b := run(SchedGTO)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedulers diverge functionally at byte %d", i)
		}
	}
}

func TestSchedPolicyString(t *testing.T) {
	if SchedRoundRobin.String() != "round-robin" || SchedGTO.String() != "gto" {
		t.Fatal("policy names wrong")
	}
}

func TestMSHRMergesMisses(t *testing.T) {
	// Many warps of one block read the SAME line back to back: with
	// MSHRs only the first miss issues a transaction; the rest merge.
	d := testDevice(t, 1<<16)
	buf := d.MustMalloc(256)
	b := isa.NewBuilder("mshr")
	b.Ldp(rBase, 0)
	b.Ld(rVal, isa.SpaceGlobal, rBase, 0, 4)
	b.Exit()
	k := &Kernel{Name: "mshr", Prog: b.MustBuild(), GridDim: 1, BlockDim: 256, Params: []uint64{buf}}
	st, err := d.Launch(k)
	if err != nil {
		t.Fatal(err)
	}
	// 8 warps all read line 0. One transaction fills it; later warps
	// either merge into the in-flight fill or hit the filled line. The
	// partition must not see 8 demand reads.
	if st.L2.ReadMisses+st.L2.ReadHits > 2 {
		t.Fatalf("MSHR failed to merge: %d L2 accesses for one hot line",
			st.L2.ReadMisses+st.L2.ReadHits)
	}
}
