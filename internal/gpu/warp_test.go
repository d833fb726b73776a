package gpu

import (
	"reflect"
	"testing"

	"haccrg/internal/isa"
)

// mkTestWarp builds a bare warp of n lanes for direct unit tests of
// the divergence machinery.
func mkTestWarp(n int) *warp {
	w := new(warp)
	w.reset(&block{id: 0, dim: n}, 0, n, 0)
	return w
}

func TestWarpMasksAtCreation(t *testing.T) {
	w := mkTestWarp(32)
	if w.mask != 0xFFFFFFFF || w.alive != 0xFFFFFFFF {
		t.Fatalf("full warp masks wrong: %x %x", w.mask, w.alive)
	}
	// Tail warp of a 40-thread block: warp 1 has 8 lanes.
	b := &block{id: 0, dim: 40}
	tail := new(warp)
	tail.reset(b, 1, 32, 0)
	if tail.mask != 0xFF || tail.alive != 0xFF {
		t.Fatalf("tail warp masks wrong: %x %x", tail.mask, tail.alive)
	}
	if tail.tidOf(3) != 35 {
		t.Fatalf("tail warp tid mapping wrong: %d", tail.tidOf(3))
	}
}

// TestWarpResetIsNew: a warp reset for a new block, after a previous
// block left every field set, equals a warp built from nothing.
func TestWarpResetIsNew(t *testing.T) {
	w := mkTestWarp(32)
	for l := range w.regs {
		for r := range w.regs[l].Regs {
			w.regs[l].Regs[r] = uint64(l*100 + r + 1)
		}
		w.regs[l].Preds = [isa.NumPreds]bool{true, true, true, true, true, true, true, true}
		w.locks[l] = lockState{sig: 0xF0, critDepth: 2}
	}
	w.pc, w.rcv, w.mask, w.alive = 17, 30, 0x0F, 0xFF
	w.stack = append(w.stack, divCtx{pc: 3, mask: 1, rcv: 9})
	w.state, w.readyAt, w.storeDone, w.fenceID = warpDone, 500, 900, 7

	b := &block{id: 4, dim: 40}
	w.reset(b, 1, 32, 1234)
	fresh := new(warp)
	fresh.reset(b, 1, 32, 1234)
	if len(w.stack) != 0 || len(fresh.stack) != 0 {
		t.Fatalf("stacks hold %d and %d entries after reset", len(w.stack), len(fresh.stack))
	}
	w.stack, fresh.stack = nil, nil
	if !reflect.DeepEqual(w, fresh) {
		t.Fatalf("reset warp differs from a new one:\n%+v\n%+v", *w, *fresh)
	}
	if w.mask != 0xFF || w.readyAt != 1234 {
		t.Fatalf("tail warp of a 40-thread block: mask %#x readyAt %d", w.mask, w.readyAt)
	}
}

// firstStoreWatch checks every detector event at one pc: the
// instruction a block runs before any lock or fence of its own, so
// every lane must be outside a critical section with an empty lockset
// and the warp's fence ID must be 0.
type firstStoreWatch struct {
	NopDetector
	pc          int
	events, bad int
}

func (d *firstStoreWatch) WarpMem(ev *WarpMemEvent) int64 {
	if ev.PC != d.pc {
		return 0
	}
	d.events++
	if ev.FenceID != 0 {
		d.bad++
	}
	for _, la := range ev.Lanes {
		if la.InCrit || la.AtomicSig != 0 {
			d.bad++
		}
	}
	return 0
}

// seenKernel stores what each thread finds when it starts: the OR of
// its 32 registers and a mask of its predicates, 16 bytes at
// param0 + 16*gtid. Then it dirties everything a warp carries to the
// next block in its slot: every register and predicate, a lock left
// held, a fence, a divergent branch, outstanding stores. It returns
// the kernel and the pc of the first store.
func seenKernel(grid, blockDim int, out uint64) (*Kernel, int) {
	b := isa.NewBuilder("seen")
	for r := 1; r < isa.NumRegs; r++ {
		b.Or(0, 0, isa.Reg(r))
	}
	b.Movi(1, 0)
	for p := 0; p < isa.NumPreds; p++ {
		b.Movi(2, 1<<p)
		b.Movi(4, 0)
		b.Selp(3, isa.Pred(p), 2, 4)
		b.Or(1, 1, 3)
	}
	b.Sreg(2, isa.SregGtid)
	b.Muli(2, 2, 16)
	b.Ldp(3, 0)
	b.Add(2, 2, 3)
	pc := b.PC()
	b.St(isa.SpaceGlobal, 2, 0, 0, 8)
	b.St(isa.SpaceGlobal, 2, 8, 1, 8)

	b.Membar()
	b.AcqMark(2)
	b.Sreg(5, isa.SregLane)
	b.Setpi(0, isa.CmpLT, 5, 7)
	b.If(0)
	b.Addi(6, 6, 1)
	b.EndIf()
	for p := 0; p < isa.NumPreds; p++ {
		b.Setp(isa.Pred(p), isa.CmpEQ, 2, 2)
	}
	for r := 0; r < isa.NumRegs; r++ {
		b.Movi(isa.Reg(r), 0x5A00+int64(r))
	}
	b.Exit()
	return &Kernel{Name: "seen", Prog: b.MustBuild(), GridDim: grid, BlockDim: blockDim, Params: []uint64{out}}, pc
}

// TestSlotWarpsStartClean: with more blocks than residency slots, a
// block placed in a slot runs on the warps of the block that left it,
// and finds them as a new warp starts: zeroed registers and
// predicates, no lock held, fence ID 0. Launches with 2, 4 and then 2
// warps per block (the last with an 8-lane tail warp) share one
// device, so the slots grow, and no slot ever holds more warps than
// one block needs.
func TestSlotWarpsStartClean(t *testing.T) {
	const grid = 64
	d := testDevice(t, 1<<20)
	out := d.MustMalloc(grid * 128 * 16)
	for _, dim := range []int{64, 128, 40} {
		k, pc := seenKernel(grid, dim, out)
		for i := 0; i < grid*dim*2; i++ {
			if err := d.Global.Store(out+uint64(8*i), 8, 0xDEAD); err != nil {
				t.Fatal(err)
			}
		}
		watch := &firstStoreWatch{pc: pc}
		d.detector = watch
		if _, err := d.Launch(k); err != nil {
			t.Fatal(err)
		}
		for gtid := 0; gtid < grid*dim; gtid++ {
			regs, _ := d.Global.Load(out+uint64(16*gtid), 8)
			preds, _ := d.Global.Load(out+uint64(16*gtid+8), 8)
			if regs != 0 || preds != 0 {
				t.Fatalf("dim %d: thread %d starts with registers OR %#x, predicates %#b", dim, gtid, regs, preds)
			}
		}
		if wantEvents := grid * ((dim + 31) / 32); watch.events != wantEvents || watch.bad != 0 {
			t.Fatalf("dim %d: %d first-store events (want %d), %d with a lock or fence carried over",
				dim, watch.events, wantEvents, watch.bad)
		}
	}
	for _, s := range d.sms {
		for slot, ws := range s.slotWarps {
			if len(ws) > 4 {
				t.Errorf("SM %d slot %d holds %d warps; no block needs more than 4", s.id, slot, len(ws))
			}
		}
	}
}

func TestBranchUniformTaken(t *testing.T) {
	w := mkTestWarp(32)
	in := &isa.Instr{Op: isa.OpBra, Tgt: 7, Pred: isa.NoPred}
	if w.branch(in, w.mask) {
		t.Fatal("unconditional branch reported divergence")
	}
	if w.pc != 7 || len(w.stack) != 0 {
		t.Fatalf("pc=%d stack=%d", w.pc, len(w.stack))
	}
}

func TestBranchDivergesAndReconverges(t *testing.T) {
	w := mkTestWarp(32)
	w.pc = 2
	in := &isa.Instr{Op: isa.OpBra, Tgt: 10, Rcv: 20, Pred: 0}
	taken := uint64(0x0000FFFF) // lanes 0-15 take
	if !w.branch(in, taken) {
		t.Fatal("divergent branch not detected")
	}
	if w.pc != 10 || w.mask != taken || w.rcv != 20 {
		t.Fatalf("taken context wrong: pc=%d mask=%x rcv=%d", w.pc, w.mask, w.rcv)
	}
	if len(w.stack) != 2 {
		t.Fatalf("stack depth %d, want 2", len(w.stack))
	}
	// Taken path reaches the join.
	w.pc = 20
	w.reconverge()
	if w.pc != 3 || w.mask != 0xFFFF0000 {
		t.Fatalf("fall-through context wrong: pc=%d mask=%x", w.pc, w.mask)
	}
	// Fall-through path reaches the join: full mask restored.
	w.pc = 20
	w.reconverge()
	if w.pc != 20 || w.mask != 0xFFFFFFFF || w.rcv != -1 {
		t.Fatalf("post-join context wrong: pc=%d mask=%x rcv=%d", w.pc, w.mask, w.rcv)
	}
	if len(w.stack) != 0 {
		t.Fatal("stack not drained")
	}
}

func TestBranchAllTakenNoDivergence(t *testing.T) {
	w := mkTestWarp(32)
	in := &isa.Instr{Op: isa.OpBra, Tgt: 5, Rcv: 9, Pred: 0}
	if w.branch(in, w.mask) {
		t.Fatal("all-taken branch diverged")
	}
	if w.pc != 5 {
		t.Fatalf("pc=%d", w.pc)
	}
}

func TestBranchNoneTakenNoDivergence(t *testing.T) {
	w := mkTestWarp(32)
	w.pc = 4
	in := &isa.Instr{Op: isa.OpBra, Tgt: 9, Rcv: 12, Pred: 0}
	if w.branch(in, 0) {
		t.Fatal("none-taken branch diverged")
	}
	if w.pc != 5 {
		t.Fatalf("pc=%d, want fall-through 5", w.pc)
	}
}

func TestExitRetiresLanes(t *testing.T) {
	w := mkTestWarp(32)
	w.exit(0x0000FFFF)
	if w.state == warpDone {
		t.Fatal("warp done with half its lanes alive")
	}
	if w.alive != 0xFFFF0000 || w.mask != 0xFFFF0000 {
		t.Fatalf("masks after partial exit: %x %x", w.alive, w.mask)
	}
	w.exit(0xFFFF0000)
	if w.state != warpDone {
		t.Fatal("warp not done after all lanes exited")
	}
}

func TestExitInsideDivergentRegionPops(t *testing.T) {
	w := mkTestWarp(32)
	w.pc = 2
	in := &isa.Instr{Op: isa.OpBra, Tgt: 10, Rcv: 20, Pred: 0}
	w.branch(in, 0x0000FFFF)
	// The taken path (lanes 0-15) exits inside the region: control
	// must pop to the fall-through path, not end the warp.
	w.exit(w.mask)
	if w.state == warpDone {
		t.Fatal("warp ended while the fall-through path was pending")
	}
	if w.mask != 0xFFFF0000 || w.pc != 3 {
		t.Fatalf("post-exit context: pc=%d mask=%x", w.pc, w.mask)
	}
	if w.alive != 0xFFFF0000 {
		t.Fatalf("alive=%x", w.alive)
	}
}

func TestGuardMaskEvaluation(t *testing.T) {
	w := mkTestWarp(32)
	for l := 0; l < 32; l++ {
		w.regs[l].Preds[3] = l%2 == 0
	}
	in := &isa.Instr{Op: isa.OpMov, Pred: 3}
	if m := w.guardMask(in); m != 0x55555555 {
		t.Fatalf("guard mask %x, want alternating", m)
	}
	in.PredNeg = true
	if m := w.guardMask(in); m != 0xAAAAAAAA {
		t.Fatalf("negated guard mask %x", m)
	}
	in.Pred = isa.NoPred
	if m := w.guardMask(in); m != w.mask {
		t.Fatalf("unpredicated guard mask %x", m)
	}
}

func TestNestedDivergenceStack(t *testing.T) {
	w := mkTestWarp(32)
	// Outer divergence at pc 0, reconv 30.
	w.pc = 0
	w.branch(&isa.Instr{Op: isa.OpBra, Tgt: 5, Rcv: 30, Pred: 0}, 0x000000FF)
	// Inner divergence inside taken path at pc 5, reconv 15.
	w.pc = 5
	w.branch(&isa.Instr{Op: isa.OpBra, Tgt: 8, Rcv: 15, Pred: 0}, 0x0000000F)
	if w.mask != 0x0F || w.rcv != 15 {
		t.Fatalf("inner taken: mask=%x rcv=%d", w.mask, w.rcv)
	}
	// Inner taken joins at 15: inner fall-through (lanes 4-7) resumes.
	w.pc = 15
	w.reconverge()
	if w.mask != 0xF0 || w.pc != 6 {
		t.Fatalf("inner fall-through: mask=%x pc=%d", w.mask, w.pc)
	}
	// It joins at 15: outer taken path's full mask (0xFF) resumes at 15.
	w.pc = 15
	w.reconverge()
	if w.mask != 0xFF || w.rcv != 30 {
		t.Fatalf("outer taken resumed wrong: mask=%x rcv=%d", w.mask, w.rcv)
	}
	// Outer taken joins at 30: outer fall-through (lanes 8-31).
	w.pc = 30
	w.reconverge()
	if w.mask != 0xFFFFFF00 || w.pc != 1 {
		t.Fatalf("outer fall-through: mask=%x pc=%d", w.mask, w.pc)
	}
	// Finally everything reconverges at 30.
	w.pc = 30
	w.reconverge()
	if w.mask != 0xFFFFFFFF || len(w.stack) != 0 {
		t.Fatalf("final state: mask=%x stack=%d", w.mask, len(w.stack))
	}
}

func TestFullMaskHelper(t *testing.T) {
	if fullMask(0) != 0 || fullMask(1) != 1 || fullMask(32) != 0xFFFFFFFF || fullMask(64) != ^uint64(0) {
		t.Fatal("fullMask wrong")
	}
}
