package gpu

import (
	"testing"

	"haccrg/internal/isa"
)

// mkTestWarp builds a bare warp of n lanes for direct unit tests of
// the divergence machinery.
func mkTestWarp(n int) *warp {
	b := &block{id: 0, dim: n}
	return newWarp(b, 0, n)
}

func TestWarpMasksAtCreation(t *testing.T) {
	w := mkTestWarp(32)
	if w.mask != 0xFFFFFFFF || w.alive != 0xFFFFFFFF {
		t.Fatalf("full warp masks wrong: %x %x", w.mask, w.alive)
	}
	// Tail warp of a 40-thread block: warp 1 has 8 lanes.
	b := &block{id: 0, dim: 40}
	tail := newWarp(b, 1, 32)
	if tail.mask != 0xFF || tail.alive != 0xFF {
		t.Fatalf("tail warp masks wrong: %x %x", tail.mask, tail.alive)
	}
	if tail.tidOf(3) != 35 {
		t.Fatalf("tail warp tid mapping wrong: %d", tail.tidOf(3))
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
		w.lanes[l].Preds[3] = l%2 == 0
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
