package core

import (
	"encoding/json"
	"strings"
	"testing"

	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// Register conventions for the test kernels.
const (
	rTid  = isa.Reg(1)
	rGtid = isa.Reg(2)
	rAddr = isa.Reg(3)
	rVal  = isa.Reg(4)
	rTmp  = isa.Reg(5)
	rI    = isa.Reg(6)
	rBase = isa.Reg(7)
	rBid  = isa.Reg(8)
	rDone = isa.Reg(9)
	rLock = isa.Reg(10)
)

func newHarness(t *testing.T, opt Options, globalBytes int) (*gpu.Device, *Detector) {
	t.Helper()
	det, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := gpu.NewDevice(gpu.TestConfig(), globalBytes, det)
	if err != nil {
		t.Fatal(err)
	}
	return dev, det
}

func launch(t *testing.T, dev *gpu.Device, k *gpu.Kernel) *gpu.LaunchStats {
	t.Helper()
	st, err := dev.Launch(k)
	if err != nil {
		t.Fatalf("launch %s: %v", k.Name, err)
	}
	return st
}

// sharedRaceKernel: warp 0 writes shared[tid*4..], warp 1 reads warp
// 0's area. withBarrier inserts the missing __syncthreads.
func sharedRaceKernel(withBarrier bool) *gpu.Kernel {
	b := isa.NewBuilder("shared-race")
	b.Sreg(rTid, isa.SregTid)
	// Warp 0 (tid < 32) writes shared[tid].
	b.Setpi(0, isa.CmpLT, rTid, 32)
	b.If(0)
	b.Muli(rAddr, rTid, 4)
	b.St(isa.SpaceShared, rAddr, 0, rTid, 4)
	b.EndIf()
	if withBarrier {
		b.Bar()
	}
	// Warp 1 (tid >= 32) reads shared[tid-32].
	b.Setpi(1, isa.CmpGE, rTid, 32)
	b.If(1)
	b.Subi(rTmp, rTid, 32)
	b.Muli(rAddr, rTmp, 4)
	b.Ld(rVal, isa.SpaceShared, rAddr, 0, 4)
	b.EndIf()
	b.Exit()
	return &gpu.Kernel{
		Name: "shared-race", Prog: b.MustBuild(),
		GridDim: 1, BlockDim: 64, SharedBytes: 256,
	}
}

func TestSharedRAWDetected(t *testing.T) {
	opt := DefaultOptions()
	opt.Global = false
	opt.DetectStaleL1 = false
	opt.SharedGranularity = 4
	dev, det := newHarness(t, opt, 1<<16)
	launch(t, dev, sharedRaceKernel(false))
	races := det.Races()
	if len(races) == 0 {
		t.Fatal("missing barrier: no shared race detected")
	}
	found := false
	for _, r := range races {
		if r.Space == isa.SpaceShared && r.Kind == KindRAW && r.Category == CatBarrier {
			found = true
		}
	}
	if !found {
		t.Fatalf("no shared RAW barrier race among %v", races)
	}
}

func TestSharedBarrierSuppressesRace(t *testing.T) {
	opt := DefaultOptions()
	opt.Global = false
	opt.DetectStaleL1 = false
	opt.SharedGranularity = 4
	dev, det := newHarness(t, opt, 1<<16)
	launch(t, dev, sharedRaceKernel(true))
	if n := len(det.Races()); n != 0 {
		t.Fatalf("barrier present but %d races reported: %v", n, det.Races()[0])
	}
}

func TestSharedWAWAndWARDetected(t *testing.T) {
	// Warp 0 writes shared[0..31]; warp 1 writes the same area (WAW);
	// then warp 0 reads while warp 2's write follows a read (covered
	// by WAW + RAW paths).
	b := isa.NewBuilder("waw")
	b.Sreg(rTid, isa.SregTid)
	b.Remi(rTmp, rTid, 32) // lane
	b.Muli(rAddr, rTmp, 4)
	b.St(isa.SpaceShared, rAddr, 0, rTid, 4) // warps collide per lane slot
	b.Exit()
	k := &gpu.Kernel{Name: "waw", Prog: b.MustBuild(), GridDim: 1, BlockDim: 64, SharedBytes: 128}

	opt := DefaultOptions()
	opt.Global = false
	opt.DetectStaleL1 = false
	opt.SharedGranularity = 4
	dev, det := newHarness(t, opt, 1<<16)
	launch(t, dev, k)
	foundWAW := false
	for _, r := range det.Races() {
		if r.Kind == KindWAW && r.Space == isa.SpaceShared {
			foundWAW = true
		}
	}
	if !foundWAW {
		t.Fatalf("no WAW detected: %v", det.Races())
	}
}

func TestWarpAwareSuppressionAtCoarseGranularity(t *testing.T) {
	// A single warp writes 32 consecutive words: at 64-byte granularity
	// 16 lanes share each granule, but same-warp accesses are
	// implicitly ordered — no race (Section VI-A1's explanation for
	// the regular benchmarks).
	b := isa.NewBuilder("warp-regular")
	b.Sreg(rTid, isa.SregTid)
	b.Muli(rAddr, rTid, 4)
	b.St(isa.SpaceShared, rAddr, 0, rTid, 4)
	b.Ld(rVal, isa.SpaceShared, rAddr, 0, 4)
	b.Exit()
	k := &gpu.Kernel{Name: "warp-regular", Prog: b.MustBuild(), GridDim: 1, BlockDim: 32, SharedBytes: 128}

	opt := DefaultOptions()
	opt.Global = false
	opt.DetectStaleL1 = false
	opt.SharedGranularity = 64
	dev, det := newHarness(t, opt, 1<<16)
	launch(t, dev, k)
	if n := len(det.Races()); n != 0 {
		t.Fatalf("intra-warp regular access at coarse granularity reported %d races: %v", n, det.Races()[0])
	}
}

func TestCoarseGranularityFalsePositivesAcrossWarps(t *testing.T) {
	// Two warps write interleaved words: warp 0 the even words, warp 1
	// the odd ones. At 4B granularity accesses are disjoint (no race);
	// at 64B granularity both warps map into every granule, producing
	// the false races of Table III.
	build := func() *gpu.Kernel {
		b := isa.NewBuilder("falsepos")
		b.Sreg(rTid, isa.SregTid)
		b.Remi(rTmp, rTid, 32) // lane
		b.Divi(rI, rTid, 32)   // warp
		b.Muli(rAddr, rTmp, 8)
		b.Muli(rI, rI, 4)
		b.Add(rAddr, rAddr, rI) // lane*8 + warp*4
		b.St(isa.SpaceShared, rAddr, 0, rTid, 4)
		b.Exit()
		return &gpu.Kernel{Name: "falsepos", Prog: b.MustBuild(), GridDim: 1, BlockDim: 64, SharedBytes: 512}
	}
	for _, tc := range []struct {
		gran     int
		expected bool
	}{{4, false}, {64, true}} {
		opt := DefaultOptions()
		opt.Global = false
		opt.DetectStaleL1 = false
		opt.SharedGranularity = tc.gran
		dev, det := newHarness(t, opt, 1<<16)
		launch(t, dev, build())
		got := len(det.Races()) > 0
		if got != tc.expected {
			t.Errorf("granularity %d: races=%v, want %v (races: %v)", tc.gran, got, tc.expected, det.Races())
		}
	}
}

// crossBlockKernel: every block writes the same global array — the
// SCAN/KMEANS bug pattern.
func crossBlockKernel(out uint64) *gpu.Kernel {
	b := isa.NewBuilder("crossblock")
	b.Sreg(rTid, isa.SregTid)
	b.Ldp(rBase, 0)
	b.Muli(rAddr, rTid, 4)
	b.Add(rAddr, rBase, rAddr)
	b.St(isa.SpaceGlobal, rAddr, 0, rTid, 4)
	b.Exit()
	return &gpu.Kernel{Name: "crossblock", Prog: b.MustBuild(), GridDim: 2, BlockDim: 32, Params: []uint64{out}}
}

func TestGlobalCrossBlockWAW(t *testing.T) {
	opt := DefaultOptions()
	opt.Shared = false
	dev, det := newHarness(t, opt, 1<<16)
	out := dev.MustMalloc(128)
	launch(t, dev, crossBlockKernel(out))
	found := false
	for _, r := range det.Races() {
		if r.Space == isa.SpaceGlobal && r.Kind == KindWAW && r.Category == CatCrossBlock {
			found = true
		}
	}
	if !found {
		t.Fatalf("cross-block WAW not detected: %v", det.Races())
	}
}

func TestSingleBlockNoCrossBlockRace(t *testing.T) {
	opt := DefaultOptions()
	opt.Shared = false
	dev, det := newHarness(t, opt, 1<<16)
	out := dev.MustMalloc(128)
	k := crossBlockKernel(out)
	k.GridDim = 1 // as designed: one block
	launch(t, dev, k)
	if n := len(det.Races()); n != 0 {
		t.Fatalf("single-block run reported %d races: %v", n, det.Races()[0])
	}
}

// syncIDKernel: warp 0 writes out[i], barrier, warp 1 reads out[i].
// The sync-ID mechanism must recognize the barrier ordering without
// any shadow invalidation of global entries.
func syncIDKernel(out uint64, withBarrier bool) *gpu.Kernel {
	b := isa.NewBuilder("syncid")
	b.Sreg(rTid, isa.SregTid)
	b.Ldp(rBase, 0)
	b.Setpi(0, isa.CmpLT, rTid, 32)
	b.If(0)
	b.Muli(rAddr, rTid, 4)
	b.Add(rAddr, rBase, rAddr)
	b.St(isa.SpaceGlobal, rAddr, 0, rTid, 4)
	b.EndIf()
	if withBarrier {
		b.Bar()
	}
	b.Setpi(1, isa.CmpGE, rTid, 32)
	b.If(1)
	b.Subi(rTmp, rTid, 32)
	b.Muli(rAddr, rTmp, 4)
	b.Add(rAddr, rBase, rAddr)
	b.Ld(rVal, isa.SpaceGlobal, rAddr, 0, 4)
	b.EndIf()
	b.Exit()
	return &gpu.Kernel{Name: "syncid", Prog: b.MustBuild(), GridDim: 1, BlockDim: 64, Params: []uint64{out}}
}

func TestSyncIDOrdersGlobalAccesses(t *testing.T) {
	opt := DefaultOptions()
	opt.Shared = false
	dev, det := newHarness(t, opt, 1<<16)
	out := dev.MustMalloc(256)
	launch(t, dev, syncIDKernel(out, true))
	if n := len(det.Races()); n != 0 {
		t.Fatalf("barrier-ordered global accesses reported %d races: %v", n, det.Races()[0])
	}
}

func TestMissingBarrierGlobalRAW(t *testing.T) {
	opt := DefaultOptions()
	opt.Shared = false
	dev, det := newHarness(t, opt, 1<<16)
	out := dev.MustMalloc(256)
	launch(t, dev, syncIDKernel(out, false))
	found := false
	for _, r := range det.Races() {
		if r.Space == isa.SpaceGlobal && r.Kind == KindRAW && r.Category == CatBarrier {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing-barrier global RAW not detected: %v", det.Races())
	}
}

// fenceKernel builds the producer-consumer pattern of Figure 4:
// block 0 writes X then raises a flag (atomically); block 1 polls the
// flag and reads X. withFence inserts the membar between the write
// and the flag update.
func fenceKernel(x, flag uint64, withFence bool) *gpu.Kernel {
	b := isa.NewBuilder("fence-pc")
	b.Sreg(rBid, isa.SregCtaid)
	b.Ldp(rBase, 0) // X
	b.Ldp(rLock, 1) // flag
	b.Setpi(0, isa.CmpEQ, rBid, 0)
	b.If(0)
	// Producer: X = 42; [fence]; atomicExch(flag, 1).
	b.Movi(rVal, 42)
	b.St(isa.SpaceGlobal, rBase, 0, rVal, 4)
	if withFence {
		b.Membar()
	}
	b.Movi(rTmp, 1)
	b.Atom(rI, isa.AtomExch, isa.SpaceGlobal, rLock, 0, rTmp, 0)
	b.EndIf()
	b.Setpi(1, isa.CmpEQ, rBid, 1)
	b.If(1)
	// Consumer: while atomicAdd(flag, 0) == 0 {}; read X.
	b.Movi(rDone, 0)
	b.Setpi(2, isa.CmpEQ, rDone, 0)
	b.While(2)
	b.Movi(rTmp, 0)
	b.Atom(rDone, isa.AtomAdd, isa.SpaceGlobal, rLock, 0, rTmp, 0)
	b.Setpi(2, isa.CmpEQ, rDone, 0)
	b.EndWhile()
	b.Ld(rVal, isa.SpaceGlobal, rBase, 0, 4)
	b.EndIf()
	b.Exit()
	return &gpu.Kernel{Name: "fence-pc", Prog: b.MustBuild(), GridDim: 2, BlockDim: 32, Params: []uint64{x, flag}}
}

func TestMissingFenceRAWDetected(t *testing.T) {
	opt := DefaultOptions()
	opt.Shared = false
	opt.DetectStaleL1 = false // isolate the fence mechanism
	dev, det := newHarness(t, opt, 1<<16)
	x := dev.MustMalloc(4)
	flag := dev.MustMalloc(4)
	launch(t, dev, fenceKernel(x, flag, false))
	found := false
	for _, r := range det.Races() {
		if r.Kind == KindRAW && r.Category == CatFence {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing-fence RAW not detected: %v", det.Races())
	}
}

func TestFencePresentSafeConsumption(t *testing.T) {
	opt := DefaultOptions()
	opt.Shared = false
	opt.DetectStaleL1 = false
	dev, det := newHarness(t, opt, 1<<16)
	x := dev.MustMalloc(4)
	flag := dev.MustMalloc(4)
	launch(t, dev, fenceKernel(x, flag, true))
	for _, r := range det.Races() {
		if r.Kind == KindRAW && r.Category == CatFence {
			t.Fatalf("fence present but fence race reported: %v", r)
		}
	}
}

// locksetKernel: block 0's thread 0 and block 1's thread 0 both update
// a word inside critical sections. If sameLock, both use lock 0;
// otherwise each uses its own lock — a classic lockset race.
func locksetKernel(locks, data uint64, sameLock bool) *gpu.Kernel {
	b := isa.NewBuilder("lockset")
	b.Sreg(rBid, isa.SregCtaid)
	b.Sreg(rTid, isa.SregTid)
	b.Ldp(rBase, 0) // locks base
	b.Ldp(rLock, 1) // data
	// Only thread 0 of each block participates.
	b.Setpi(0, isa.CmpEQ, rTid, 0)
	b.If(0)
	if sameLock {
		b.Movi(rTmp, 0)
	} else {
		b.Mov(rTmp, rBid)
	}
	b.Muli(rTmp, rTmp, 4)
	b.Add(rAddr, rBase, rTmp) // &locks[lockIdx]
	// Acquire via CAS retry.
	b.Movi(rDone, 0)
	b.Setpi(1, isa.CmpEQ, rDone, 0)
	b.While(1)
	b.Movi(rVal, 0)
	b.Movi(rI, 1)
	b.Atom(rGtid, isa.AtomCAS, isa.SpaceGlobal, rAddr, 0, rVal, rI)
	b.Setpi(2, isa.CmpEQ, rGtid, 0)
	b.If(2)
	b.AcqMark(rAddr)
	b.Ld(rVal, isa.SpaceGlobal, rLock, 0, 4)
	b.Addi(rVal, rVal, 1)
	b.St(isa.SpaceGlobal, rLock, 0, rVal, 4)
	b.Membar()
	b.RelMark()
	b.Movi(rI, 0)
	b.Atom(rGtid, isa.AtomExch, isa.SpaceGlobal, rAddr, 0, rI, 0)
	b.Movi(rDone, 1)
	b.EndIf()
	b.Setpi(1, isa.CmpEQ, rDone, 0)
	b.EndWhile()
	b.EndIf()
	b.Exit()
	return &gpu.Kernel{Name: "lockset", Prog: b.MustBuild(), GridDim: 2, BlockDim: 32, Params: []uint64{locks, data}}
}

func TestLocksetDifferentLocksRace(t *testing.T) {
	opt := DefaultOptions()
	opt.Shared = false
	opt.DetectStaleL1 = false
	dev, det := newHarness(t, opt, 1<<16)
	locks := dev.MustMalloc(64)
	data := dev.MustMalloc(4)
	launch(t, dev, locksetKernel(locks, data, false))
	found := false
	for _, r := range det.Races() {
		if r.Category == CatLockset {
			found = true
		}
	}
	if !found {
		t.Fatalf("different-locks race not detected: %v", det.Races())
	}
}

func TestLocksetCommonLockSafe(t *testing.T) {
	opt := DefaultOptions()
	opt.Shared = false
	opt.DetectStaleL1 = false
	dev, det := newHarness(t, opt, 1<<16)
	locks := dev.MustMalloc(64)
	data := dev.MustMalloc(4)
	launch(t, dev, locksetKernel(locks, data, true))
	for _, r := range det.Races() {
		if r.Category == CatLockset {
			t.Fatalf("common lock but lockset race reported: %v", r)
		}
	}
	if got := dev.Global.U32(int(data) / 4); got != 2 {
		t.Fatalf("critical-section counter = %d, want 2", got)
	}
}

// mixedProtectionKernel: block 0 updates data under a lock; block 1
// updates it bare.
func mixedProtectionKernel(lock, data uint64) *gpu.Kernel {
	b := isa.NewBuilder("mixed")
	b.Sreg(rBid, isa.SregCtaid)
	b.Sreg(rTid, isa.SregTid)
	b.Ldp(rAddr, 0) // lock
	b.Ldp(rLock, 1) // data
	b.Setpi(0, isa.CmpEQ, rTid, 0)
	b.If(0)
	b.Setpi(1, isa.CmpEQ, rBid, 0)
	b.If(1)
	// Protected update.
	b.Movi(rDone, 0)
	b.Setpi(2, isa.CmpEQ, rDone, 0)
	b.While(2)
	b.Movi(rVal, 0)
	b.Movi(rI, 1)
	b.Atom(rGtid, isa.AtomCAS, isa.SpaceGlobal, rAddr, 0, rVal, rI)
	b.Setpi(3, isa.CmpEQ, rGtid, 0)
	b.If(3)
	b.AcqMark(rAddr)
	b.Ld(rVal, isa.SpaceGlobal, rLock, 0, 4)
	b.Addi(rVal, rVal, 1)
	b.St(isa.SpaceGlobal, rLock, 0, rVal, 4)
	b.RelMark()
	b.Movi(rI, 0)
	b.Atom(rGtid, isa.AtomExch, isa.SpaceGlobal, rAddr, 0, rI, 0)
	b.Movi(rDone, 1)
	b.EndIf()
	b.Setpi(2, isa.CmpEQ, rDone, 0)
	b.EndWhile()
	b.EndIf()
	b.Setpi(4, isa.CmpEQ, rBid, 1)
	b.If(4)
	// Unprotected update.
	b.Ld(rVal, isa.SpaceGlobal, rLock, 0, 4)
	b.Addi(rVal, rVal, 10)
	b.St(isa.SpaceGlobal, rLock, 0, rVal, 4)
	b.EndIf()
	b.EndIf()
	b.Exit()
	return &gpu.Kernel{Name: "mixed", Prog: b.MustBuild(), GridDim: 2, BlockDim: 32, Params: []uint64{lock, data}}
}

func TestMixedProtectedUnprotectedRace(t *testing.T) {
	opt := DefaultOptions()
	opt.Shared = false
	opt.DetectStaleL1 = false
	dev, det := newHarness(t, opt, 1<<16)
	lock := dev.MustMalloc(4)
	data := dev.MustMalloc(4)
	launch(t, dev, mixedProtectionKernel(lock, data))
	found := false
	for _, r := range det.Races() {
		if r.Category == CatLockset {
			found = true
		}
	}
	if !found {
		t.Fatalf("mixed protected/unprotected race not detected: %v", det.Races())
	}
}

func TestStaleL1Detection(t *testing.T) {
	// Block 0 (SM 0) reads X twice; between the reads, block 1 (SM 1)
	// writes X. The second read hits block 0's stale L1 line.
	b := isa.NewBuilder("stale")
	b.Sreg(rBid, isa.SregCtaid)
	b.Sreg(rTid, isa.SregTid)
	b.Ldp(rBase, 0) // X
	b.Ldp(rLock, 1) // flag
	b.Setpi(0, isa.CmpEQ, rTid, 0)
	b.If(0)
	b.Setpi(1, isa.CmpEQ, rBid, 0)
	b.If(1)
	b.Ld(rVal, isa.SpaceGlobal, rBase, 0, 4) // fill L1
	// Wait for block 1's signal.
	b.Movi(rDone, 0)
	b.Setpi(2, isa.CmpEQ, rDone, 0)
	b.While(2)
	b.Movi(rTmp, 0)
	b.Atom(rDone, isa.AtomAdd, isa.SpaceGlobal, rLock, 0, rTmp, 0)
	b.Setpi(2, isa.CmpEQ, rDone, 0)
	b.EndWhile()
	b.Ld(rVal, isa.SpaceGlobal, rBase, 0, 4) // stale L1 hit
	b.EndIf()
	b.Setpi(3, isa.CmpEQ, rBid, 1)
	b.If(3)
	b.Movi(rVal, 7)
	b.St(isa.SpaceGlobal, rBase, 0, rVal, 4)
	b.Membar()
	b.Movi(rTmp, 1)
	b.Atom(rI, isa.AtomExch, isa.SpaceGlobal, rLock, 0, rTmp, 0)
	b.EndIf()
	b.EndIf()
	b.Exit()
	k := &gpu.Kernel{Name: "stale", Prog: b.MustBuild(), GridDim: 2, BlockDim: 32, Params: nil}

	opt := DefaultOptions()
	opt.Shared = false
	dev, det := newHarness(t, opt, 1<<16)
	x := dev.MustMalloc(4)
	flag := dev.MustMalloc(4)
	k.Params = []uint64{x, flag}
	launch(t, dev, k)
	found := false
	for _, r := range det.Races() {
		if r.Category == CatStaleL1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("stale-L1 read not detected: %v", det.Races())
	}
}

func TestIntraWarpWAWSameAddress(t *testing.T) {
	// All 32 lanes write the same global word in one instruction.
	b := isa.NewBuilder("iwaw")
	b.Ldp(rBase, 0)
	b.Movi(rVal, 1)
	b.St(isa.SpaceGlobal, rBase, 0, rVal, 4)
	b.Exit()
	k := &gpu.Kernel{Name: "iwaw", Prog: b.MustBuild(), GridDim: 1, BlockDim: 32}

	opt := DefaultOptions()
	opt.Shared = false
	opt.DetectStaleL1 = false
	dev, det := newHarness(t, opt, 1<<16)
	out := dev.MustMalloc(4)
	k.Params = []uint64{out}
	launch(t, dev, k)
	found := false
	for _, r := range det.Races() {
		if r.Category == CatIntraWarp && r.Kind == KindWAW {
			found = true
		}
	}
	if !found {
		t.Fatalf("intra-warp same-address WAW not detected: %v", det.Races())
	}
}

func TestDetectorStatsAndDedup(t *testing.T) {
	opt := DefaultOptions()
	opt.Shared = false
	dev, det := newHarness(t, opt, 1<<16)
	out := dev.MustMalloc(128)
	launch(t, dev, crossBlockKernel(out))
	st := det.Stats()
	if st.GlobalChecks == 0 {
		t.Error("no global checks counted")
	}
	if st.Reports == 0 {
		t.Error("no dynamic reports counted")
	}
	if st.ShadowReads == 0 || st.ShadowWrites == 0 {
		t.Error("no shadow traffic modelled")
	}
	// 32 conflicting words -> 32 distinct granule sites.
	if n := det.SiteCount(isa.SpaceGlobal); n != 32 {
		t.Errorf("global race sites = %d, want 32", n)
	}
	det.Reset()
	if len(det.Races()) != 0 || det.SiteCount(isa.SpaceGlobal) != 0 {
		t.Error("Reset left state")
	}
}

func TestBarrierInvalidationStall(t *testing.T) {
	opt := DefaultOptions()
	opt.Global = false
	opt.DetectStaleL1 = false
	dev, _ := newHarness(t, opt, 1<<16)
	st := launch(t, dev, sharedRaceKernel(true))
	if st.DetectorStall == 0 {
		t.Error("shared detection at a barrier should cost invalidation cycles")
	}
}

func TestSharedShadowInGlobalMode(t *testing.T) {
	opt := DefaultOptions()
	opt.SharedShadowInGlobal = true
	dev, det := newHarness(t, opt, 1<<18)
	launch(t, dev, sharedRaceKernel(false))
	if len(det.Races()) == 0 {
		t.Fatal("figure-8 mode lost detection capability")
	}
	if det.Stats().ShadowReads == 0 {
		t.Error("figure-8 mode should fetch shadow lines from global memory")
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{},
		{Shared: true, SharedGranularity: 3, GlobalGranularity: 4},
		{Shared: true, SharedGranularity: 16, GlobalGranularity: 0},
		{Global: true, SharedGranularity: 16, GlobalGranularity: 4, SharedShadowInGlobal: true},
		{Shared: true, SharedGranularity: 16, GlobalGranularity: 4, DetectStaleL1: true},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: Validate(%+v) = nil, want error", i, o)
		}
	}
	good := DefaultOptions()
	if err := good.Validate(); err != nil {
		t.Errorf("DefaultOptions invalid: %v", err)
	}
}

func TestJSONReport(t *testing.T) {
	opt := DefaultOptions()
	opt.Shared = false
	dev, det := newHarness(t, opt, 1<<16)
	out := dev.MustMalloc(128)
	launch(t, dev, crossBlockKernel(out))
	rep := det.Report()
	if rep.Summary.Distinct != len(det.Races()) {
		t.Errorf("report distinct = %d, races = %d", rep.Summary.Distinct, len(det.Races()))
	}
	if rep.Summary.ByKind["WAW"] == 0 {
		t.Error("report lost the WAW kind")
	}
	if rep.Options.GlobalGranularity != 4 || !rep.Options.Global {
		t.Errorf("report options wrong: %+v", rep.Options)
	}
	var sb strings.Builder
	if err := rep.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if back.Summary.Distinct != rep.Summary.Distinct {
		t.Error("JSON round trip lost data")
	}
}
