package kernels

// Characterization tests: the Table II qualitative structure of the
// benchmark suite must hold — which benchmarks lean on shared memory,
// which on global memory, which synchronize with fences, and which
// avoid shared memory entirely.

import (
	"testing"

	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

func statsFor(t *testing.T, name string, p Params) *gpu.LaunchStats {
	t.Helper()
	return runBench(t, name, p)
}

func TestSharedHeavyBenchmarks(t *testing.T) {
	// SCAN and HIST are the suite's shared-memory-dominated workloads.
	for _, name := range []string{"scan", "hist"} {
		p := Params{Scale: 1}
		if name == "scan" {
			p.SingleBlock = true
		}
		st := statsFor(t, name, p)
		if st.SharedReadPct() < 5 {
			t.Errorf("%s: shared reads %.2f%%, expected shared-heavy (>5%%)", name, st.SharedReadPct())
		}
		if st.GlobalReadPct() > st.SharedReadPct() {
			t.Errorf("%s: global reads (%.2f%%) outweigh shared (%.2f%%)",
				name, st.GlobalReadPct(), st.SharedReadPct())
		}
	}
}

func TestGlobalHeavyBenchmarks(t *testing.T) {
	// PSUM and REDUCE stream global memory.
	for _, name := range []string{"psum", "reduce"} {
		st := statsFor(t, name, Params{Scale: 1})
		if st.GlobalReadPct() < 5 {
			t.Errorf("%s: global reads %.2f%%, expected global-heavy (>5%%)", name, st.GlobalReadPct())
		}
		if st.SharedReadPct() > st.GlobalReadPct() {
			t.Errorf("%s: shared reads (%.2f%%) outweigh global (%.2f%%)",
				name, st.SharedReadPct(), st.GlobalReadPct())
		}
	}
}

func TestHashUsesNoSharedMemory(t *testing.T) {
	// Table II lists HASH at 0% shared reads.
	st := statsFor(t, "hash", Params{Scale: 1})
	if st.SharedReads != 0 || st.SharedWrites != 0 {
		t.Errorf("hash touched shared memory: %d reads, %d writes", st.SharedReads, st.SharedWrites)
	}
}

func TestFenceUsers(t *testing.T) {
	// The paper: REDUCE, PSUM and KMEANS use memory fencing for
	// inter-thread-block communication; HASH fences before releases.
	for _, name := range []string{"reduce", "psum", "kmeans", "hash"} {
		p := Params{Scale: 1}
		if name == "kmeans" {
			p.SingleBlock = true
		}
		st := statsFor(t, name, p)
		if st.Fences == 0 {
			t.Errorf("%s executed no fences", name)
		}
	}
	// The independent-tile benchmarks use none.
	for _, name := range []string{"mcarlo", "scan", "fwalsh", "hist", "sortnw", "offt"} {
		p := Params{Scale: 1}
		if name == "scan" {
			p.SingleBlock = true
		}
		st := statsFor(t, name, p)
		if st.Fences != 0 {
			t.Errorf("%s executed %d fences, expected none", name, st.Fences)
		}
	}
}

func TestBarrierUsers(t *testing.T) {
	// Every benchmark except PSUM-lite patterns synchronizes with
	// barriers; HASH synchronizes only with locks.
	for _, name := range []string{"mcarlo", "scan", "fwalsh", "hist", "sortnw", "reduce", "offt", "kmeans", "psum"} {
		p := Params{Scale: 1}
		if name == "scan" || name == "kmeans" {
			p.SingleBlock = true
		}
		st := statsFor(t, name, p)
		if st.Barriers == 0 {
			t.Errorf("%s executed no barriers", name)
		}
	}
	st := statsFor(t, "hash", Params{Scale: 1})
	if st.Barriers != 0 {
		t.Errorf("hash executed %d barriers, expected lock-only synchronization", st.Barriers)
	}
}

func TestHashUsesCriticalSections(t *testing.T) {
	// HASH must exercise the lockset machinery: count critical-section
	// accesses through a probe detector.
	probe := &critProbe{}
	bm := Get("hash")
	dev, err := gpu.NewDevice(gpu.TestConfig(), bm.GlobalBytes(1), probe)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := bm.Build(dev, Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Run(dev); err != nil {
		t.Fatal(err)
	}
	if probe.critAccesses == 0 {
		t.Fatal("hash performed no in-critical-section accesses")
	}
	if probe.protectedSigs == 0 {
		t.Fatal("hash critical sections carried no lockset signatures")
	}
}

type critProbe struct {
	gpu.NopDetector
	critAccesses  int
	protectedSigs int
}

func (c *critProbe) WarpMem(ev *gpu.WarpMemEvent) int64 {
	if ev.Space != isa.SpaceGlobal || ev.Atomic {
		return 0
	}
	for i := range ev.Lanes {
		if ev.Lanes[i].InCrit {
			c.critAccesses++
			if ev.Lanes[i].AtomicSig != 0 {
				c.protectedSigs++
			}
		}
	}
	return 0
}

func TestScaleGrowsWork(t *testing.T) {
	// Scale must grow the executed work for every benchmark.
	for _, bm := range All() {
		p1 := Params{Scale: 1}
		p4 := Params{Scale: 1}
		p4.Scale = 4
		if bm.Name == "scan" || bm.Name == "kmeans" {
			p1.SingleBlock = true
			p4.SingleBlock = true
		}
		s1 := statsFor(t, bm.Name, p1)
		s4 := statsFor(t, bm.Name, p4)
		if bm.Name == "scan" {
			continue // scan's element count is fixed by its (buggy) design
		}
		if s4.ThreadInstrs <= s1.ThreadInstrs {
			t.Errorf("%s: scale 4 ran %d thread instrs vs %d at scale 1",
				bm.Name, s4.ThreadInstrs, s1.ThreadInstrs)
		}
	}
}

func TestGlobalBytesSufficient(t *testing.T) {
	// Every benchmark's GlobalBytes estimate must cover its allocations
	// at several scales.
	for _, bm := range All() {
		for _, scale := range []int{1, 3} {
			dev, err := gpu.NewDevice(gpu.TestConfig(), bm.GlobalBytes(scale), nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bm.Build(dev, Params{Scale: scale}); err != nil {
				t.Errorf("%s at scale %d: %v", bm.Name, scale, err)
			}
		}
	}
}
