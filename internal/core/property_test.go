package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// fakeEnv satisfies gpu.Env for direct detector-level property tests,
// without spinning up the full simulator.
type fakeEnv struct {
	cfg      gpu.Config
	fenceIDs map[[2]int]uint32
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{cfg: gpu.TestConfig(), fenceIDs: map[[2]int]uint32{}}
}

func (f *fakeEnv) Config() *gpu.Config                     { return &f.cfg }
func (f *fakeEnv) ShadowTx(int, int64, uint64, bool) int64 { return 0 }
func (f *fakeEnv) InstrTx(int, int64, uint64, bool) int64  { return 0 }
func (f *fakeEnv) InstrAtomicTx(int, int64, uint64) int64  { return 0 }
func (f *fakeEnv) GlobalMemSize() uint64                   { return 1 << 30 }
func (f *fakeEnv) CurrentFenceID(block, warp int) uint32 {
	return f.fenceIDs[[2]int{block, warp}]
}

// mkEvent builds a single-lane global event.
func mkEvent(block, tid, sm int, addr uint64, write bool, syncID, fenceID uint32) *gpu.WarpMemEvent {
	return &gpu.WarpMemEvent{
		Space: isa.SpaceGlobal, Write: write,
		SM: sm, Block: block, WarpInBlock: tid / 32,
		SyncID: syncID, FenceID: fenceID,
		Lanes: []gpu.LaneAccess{{Lane: tid % 32, Tid: tid, Addr: addr, Size: 4}},
	}
}

func newDirectDetector(t *testing.T) (*Detector, *fakeEnv) {
	t.Helper()
	opt := DefaultOptions()
	opt.Shared = false
	opt.DetectStaleL1 = false
	opt.ModelTraffic = false
	d := MustNew(opt)
	env := newFakeEnv()
	d.KernelStart(env, "prop")
	return d, env
}

// Property: accesses from a single thread never race, whatever the
// read/write sequence.
func TestPropertySingleThreadNeverRaces(t *testing.T) {
	f := func(writes []bool, addrSeed uint8) bool {
		d, _ := newDirectDetector(t)
		addr := uint64(addrSeed) * 4
		for _, w := range writes {
			d.WarpMem(mkEvent(3, 7, 1, addr, w, 0, 0))
		}
		return len(d.Races()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: same-warp accesses never race under warp-aware reporting.
func TestPropertySameWarpNeverRaces(t *testing.T) {
	f := func(ops []uint8) bool {
		d, _ := newDirectDetector(t)
		for _, op := range ops {
			tid := int(op % 32) // all within warp 0
			write := op&0x80 != 0
			d.WarpMem(mkEvent(0, tid, 0, 64, write, 0, 0))
		}
		return len(d.Races()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: read-only workloads never race, regardless of thread or
// block mixture.
func TestPropertyReadsNeverRace(t *testing.T) {
	f := func(tids []uint16) bool {
		d, _ := newDirectDetector(t)
		for _, raw := range tids {
			block := int(raw >> 10)
			tid := int(raw & 0x3FF)
			d.WarpMem(mkEvent(block, tid, block%4, 128, false, 0, 0))
		}
		return len(d.Races()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a cross-warp write after any access from another warp
// reports exactly one kind of race at that granule.
func TestPropertyCrossWarpWriteRaces(t *testing.T) {
	f := func(firstWrite bool) bool {
		d, _ := newDirectDetector(t)
		d.WarpMem(mkEvent(0, 1, 0, 256, firstWrite, 0, 0))
		d.WarpMem(mkEvent(0, 40, 0, 256, true, 0, 0)) // warp 1, write
		return len(d.Races()) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: barrier ordering (sync-ID advance) suppresses the race the
// unsynchronized version reports.
func TestPropertySyncIDAlwaysOrders(t *testing.T) {
	f := func(tidA, tidB uint8, wA, wB bool) bool {
		a := int(tidA)
		bb := int(tidB)
		if a/32 == bb/32 {
			return true // same warp: ordered anyway
		}
		race := wA || wB
		// Unsynchronized: same sync ID.
		d1, _ := newDirectDetector(t)
		d1.WarpMem(mkEvent(0, a, 0, 512, wA, 5, 0))
		d1.WarpMem(mkEvent(0, bb, 0, 512, wB, 5, 0))
		unsync := len(d1.Races())
		// Barrier between: sync ID advances.
		d2, _ := newDirectDetector(t)
		d2.WarpMem(mkEvent(0, a, 0, 512, wA, 5, 0))
		d2.WarpMem(mkEvent(0, bb, 0, 512, wB, 6, 0))
		synced := len(d2.Races())
		if synced != 0 {
			return false
		}
		if race && wB && unsync == 0 {
			return false // a write must have been flagged
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: fence-ID advance makes cross-block RAW consumption safe;
// no advance makes it a race.
func TestPropertyFenceGatesRAW(t *testing.T) {
	f := func(fenceAfterWrite bool) bool {
		d, env := newDirectDetector(t)
		d.WarpMem(mkEvent(0, 0, 0, 1024, true, 0, 3))
		if fenceAfterWrite {
			env.fenceIDs[[2]int{0, 0}] = 4
		} else {
			env.fenceIDs[[2]int{0, 0}] = 3
		}
		d.WarpMem(mkEvent(1, 0, 1, 1024, false, 0, 0))
		raced := len(d.Races()) > 0
		return raced != fenceAfterWrite
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: dedup never loses dynamic counts — the sum of per-race
// Counts equals the number of dynamic reports.
func TestPropertyDedupPreservesCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		d, _ := newDirectDetector(t)
		for i := 0; i < 200; i++ {
			block := rng.Intn(3)
			tid := rng.Intn(96)
			addr := uint64(rng.Intn(8)) * 4
			d.WarpMem(mkEvent(block, tid, block, addr, rng.Intn(2) == 0, 0, 0))
		}
		var sum int64
		for _, r := range d.Races() {
			sum += r.Count
		}
		if sum != d.Stats().Reports {
			t.Fatalf("trial %d: dedup counts %d != dynamic reports %d", trial, sum, d.Stats().Reports)
		}
	}
}

// Property: kernel boundaries reset all shadow state — replaying the
// same racy access pair in a new kernel reports it again, and the
// first access of the new kernel never races against the old one.
func TestPropertyKernelBoundaryResets(t *testing.T) {
	d, env := newDirectDetector(t)
	d.WarpMem(mkEvent(0, 0, 0, 2048, true, 0, 0))
	d.KernelStart(env, "second")
	d.WarpMem(mkEvent(1, 50, 1, 2048, false, 0, 0))
	if len(d.Races()) != 0 {
		t.Fatalf("access raced against a previous kernel's shadow state: %v", d.Races())
	}
}

// Nested critical sections: signatures must survive inner releases and
// clear only at depth zero (engine-level test through a real kernel).
func TestNestedLockDepth(t *testing.T) {
	opt := DefaultOptions()
	opt.Shared = false
	opt.DetectStaleL1 = false
	det := MustNew(opt)
	dev := gpu.MustNewDevice(gpu.TestConfig(), 1<<16, det)
	lockA := dev.MustMalloc(4)
	lockB := dev.MustMalloc(4)
	data := dev.MustMalloc(4)

	b := isa.NewBuilder("nested")
	b.Sreg(1, isa.SregCtaid)
	b.Ldp(2, 0)
	b.Ldp(3, 1)
	b.Ldp(4, 2)
	// Outer: lock A; inner: lock B; write data between inner release
	// and outer release — still protected by A.
	b.AcqMark(2)
	b.AcqMark(3)
	b.RelMark() // release B: depth 1, signature must persist
	b.Ld(5, isa.SpaceGlobal, 4, 0, 4)
	b.Addi(5, 5, 1)
	b.St(isa.SpaceGlobal, 4, 0, 5, 4)
	b.RelMark() // release A: depth 0, signature clears
	b.Exit()
	k := &gpu.Kernel{Name: "nested", Prog: b.MustBuild(),
		GridDim: 2, BlockDim: 1, Params: []uint64{lockA, lockB, data}}
	if _, err := dev.Launch(k); err != nil {
		t.Fatal(err)
	}
	// Both blocks held lock A around the write: common lockset, no race.
	for _, r := range det.Races() {
		if r.Category == CatLockset {
			t.Fatalf("nested-lock write flagged despite common outer lock: %v", r)
		}
	}
}

// Sorted output must be stable and ordered.
func TestSortedRacesOrder(t *testing.T) {
	d, _ := newDirectDetector(t)
	for i := 5; i >= 0; i-- {
		d.WarpMem(mkEvent(0, 0, 0, uint64(i)*4, true, 0, 0))
		d.WarpMem(mkEvent(0, 40, 0, uint64(i)*4, true, 0, 0))
	}
	sorted := d.SortedRaces()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].Granule > sorted[i].Granule {
			t.Fatalf("races not sorted by granule: %v", sorted)
		}
	}
}
