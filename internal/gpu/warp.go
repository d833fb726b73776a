package gpu

import (
	"math/bits"

	"haccrg/internal/bloom"
	"haccrg/internal/isa"
)

// warpState is the scheduler-visible state of a warp.
type warpState uint8

const (
	warpReady warpState = iota
	warpAtBarrier
	warpDone
)

// divCtx is one SIMT divergence-stack entry: resume execution at pc
// with the given active mask, ending (reconverging) at rcv.
type divCtx struct {
	pc   int
	mask uint64
	rcv  int // -1 for the top-level context
}

// lockState is one thread's lockset state.
type lockState struct {
	sig       bloom.Sig // lockset signature (the paper's atomic ID register)
	critDepth int       // lock nesting depth; signature clears at zero
}

// warp is 32 threads executing in lockstep.
type warp struct {
	block   *block
	inBlock int // warp index within the block

	pc    int
	mask  uint64 // current active mask
	alive uint64 // lanes that have not exited
	rcv   int    // reconvergence PC of the current context
	stack []divCtx

	// regs[l] and locks[l] are lane l's thread state. The register
	// files are one contiguous slice so that a register instruction
	// runs over the whole warp in one isa.ExecLanes call.
	regs  []isa.State
	locks []lockState

	state     warpState
	readyAt   int64
	storeDone int64 // completion cycle of the latest outstanding store

	fenceID uint32 // per-warp fence logical clock (paper Section III-C)
}

func fullMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// reset makes w warp inBlock of block b, ready at cycle at, in the
// state a new warp starts in: zeroed registers and lock state, an empty
// divergence stack, fence ID 0. Tail warps of a non-multiple block
// dimension start with only the valid lanes alive. The register files
// and the stack keep their memory, so a residency slot's warps serve
// every block placed in it.
func (w *warp) reset(b *block, inBlock, warpSize int, at int64) {
	regs, locks := w.regs, w.locks
	if len(regs) == warpSize {
		clear(regs)
		clear(locks)
	} else {
		regs, locks = make([]isa.State, warpSize), make([]lockState, warpSize)
	}
	n := min(b.dim-inBlock*warpSize, warpSize)
	*w = warp{
		block:   b,
		inBlock: inBlock,
		mask:    fullMask(n),
		alive:   fullMask(n),
		rcv:     -1,
		stack:   w.stack[:0],
		regs:    regs,
		locks:   locks,
		readyAt: at,
	}
}

// tidOf returns the block-relative thread id of a lane.
func (w *warp) tidOf(laneIdx int) int { return w.inBlock*len(w.regs) + laneIdx }

// guardMask evaluates an instruction's guard over the active lanes.
func (w *warp) guardMask(in *isa.Instr) uint64 {
	if in.Pred == isa.NoPred {
		return w.mask
	}
	var m uint64
	for a := w.mask; a != 0; a &= a - 1 {
		l := bits.TrailingZeros64(a)
		p := w.regs[l].Preds[in.Pred]
		if in.PredNeg {
			p = !p
		}
		if p {
			m |= 1 << uint(l)
		}
	}
	return m
}

// reconverge pops divergence contexts whose join point has been
// reached. Called before each fetch.
func (w *warp) reconverge() {
	for w.rcv >= 0 && w.pc == w.rcv && len(w.stack) > 0 {
		top := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		w.pc = top.pc
		w.mask = top.mask & w.alive
		w.rcv = top.rcv
	}
}

// branch executes a (possibly divergent) branch over execMask, the
// guard-qualified active lanes. Returns true if the warp diverged.
func (w *warp) branch(in *isa.Instr, execMask uint64) bool {
	if in.Pred == isa.NoPred {
		w.pc = in.Tgt
		return false
	}
	taken := execMask
	notTaken := w.mask &^ execMask
	switch {
	case notTaken == 0:
		w.pc = in.Tgt
		return false
	case taken == 0:
		w.pc++
		return false
	}
	// Divergence: run the taken path first; the fall-through path and
	// the post-join continuation wait on the stack.
	w.stack = append(w.stack,
		divCtx{pc: in.Rcv, mask: w.mask, rcv: w.rcv},
		divCtx{pc: w.pc + 1, mask: notTaken, rcv: in.Rcv},
	)
	w.pc = in.Tgt
	w.mask = taken
	w.rcv = in.Rcv
	return true
}

// exit retires execMask's lanes; the warp finishes when none are left.
func (w *warp) exit(execMask uint64) {
	w.alive &^= execMask
	w.mask &^= execMask
	for w.mask == 0 {
		if len(w.stack) == 0 {
			w.state = warpDone
			return
		}
		top := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		w.pc = top.pc
		w.mask = top.mask & w.alive
		w.rcv = top.rcv
	}
}
