package staticrace

import (
	"math"

	"haccrg/internal/isa"
)

// The concrete replayer runs every thread of the launch independently
// through the executor's exact ALU and memory semantics (gpu/warp.go
// aluLane, gpu/exec_mem.go), tracking a taint bit per register and
// predicate. Values loaded from shared or global memory are tainted —
// another thread may have written them, so their content is
// schedule-dependent — and a thread is abandoned the moment taint
// reaches a branch guard, an exit guard, or a memory address. A
// taint-free replay is therefore *exact*: every control decision and
// every address is a deterministic function of thread-local state, so
// the recorded per-thread access multiset is what the simulator will
// produce under any schedule. That exactness is what the quiet-granule
// refinement and the provable-race witnesses (witness.go) stand on.

// Replay budgets; MaxReplaySteps and MaxReplayThreads in Config
// override the total and the thread cap.
const (
	replayPerThreadSteps = 1 << 17
	replayTotalSteps     = 1 << 23
	replayMaxThreads     = 8192
	replayMaxAccesses    = 1 << 20
)

// raccess flag bits.
const (
	raWrite uint8 = 1 << iota
	raAtomic
	raShared
)

// raccess is one recorded shared/global access of one thread. Shared
// addresses are window-relative (the per-block shared offset), global
// addresses absolute; bar is the thread's barrier count at the access.
type raccess struct {
	addr  uint64
	pc    int32
	bar   int32
	size  uint16
	flags uint8
}

func (r raccess) write() bool  { return r.flags&raWrite != 0 }
func (r raccess) atomic() bool { return r.flags&raAtomic != 0 }
func (r raccess) shared() bool { return r.flags&raShared != 0 }

// rthread is one thread's replay outcome.
type rthread struct {
	bid, tid int
	bars     int
	ok       bool // ran to Exit taint-free within budget
	acc      []raccess
}

// roob is a concrete shared-memory out-of-bounds access observed
// during replay: the oob witness payload.
type roob struct {
	bid, tid, pc int
	rel          uint64
	size         int
}

// replayResult is the whole-launch replay.
type replayResult struct {
	threads   []rthread
	complete  bool // every thread ok, no shared OOB, budgets held
	blockBars bool // within every block, every thread retired the same bar count
	acqMark   bool // program uses ACQMARK critical sections (lockset path)
	oobs      []roob
	steps     int64
}

// replayKernel replays every thread of the launch. A nil return means
// the launch exceeds the thread budget and replay was not attempted.
func (a *analyzer) replayKernel() *replayResult {
	nThreads := a.k.GridDim * a.k.BlockDim
	if nThreads <= 0 || nThreads > a.conf.MaxReplayThreads {
		return nil
	}
	rr := &replayResult{complete: true, threads: make([]rthread, 0, nThreads)}
	var nAcc int64
	for bid := 0; bid < a.k.GridDim; bid++ {
		for tid := 0; tid < a.k.BlockDim; tid++ {
			budget := int64(replayPerThreadSteps)
			if rem := a.conf.MaxReplaySteps - rr.steps; rem < budget {
				budget = rem
			}
			if budget <= 0 {
				rr.complete = false
				return rr
			}
			// Threads of one launch mostly retire the same access count,
			// so the previous thread's count sizes this one's list.
			prev := 0
			if len(rr.threads) > 0 {
				prev = len(rr.threads[len(rr.threads)-1].acc)
			}
			th, oobs, used := a.replayThread(bid, tid, budget, prev)
			rr.steps += used
			rr.threads = append(rr.threads, th)
			rr.oobs = append(rr.oobs, oobs...)
			if !th.ok || len(oobs) > 0 {
				rr.complete = false
			}
			nAcc += int64(len(th.acc))
			if nAcc > replayMaxAccesses {
				rr.complete = false
				return rr
			}
		}
	}
	if a.progAcqMark() {
		rr.acqMark = true
	}
	// blockBars: every thread of each block retired the same number of
	// barriers (and retired cleanly). Then the i-th barrier arrival of
	// any thread is the block's i-th barrier event, which makes the
	// per-access bar label a consistent epoch index across the block.
	rr.blockBars = true
	for bid := 0; bid < a.k.GridDim; bid++ {
		base := bid * a.k.BlockDim
		want := rr.threads[base].bars
		for t := 0; t < a.k.BlockDim; t++ {
			th := &rr.threads[base+t]
			if !th.ok || th.bars != want {
				rr.blockBars = false
			}
		}
	}
	return rr
}

func (a *analyzer) progAcqMark() bool {
	for i := range a.prog.Code {
		switch a.prog.Code[i].Op {
		case isa.OpAcqMark, isa.OpRelMark:
			return true
		}
	}
	return false
}

// replayThread runs one thread to Exit or abandonment; accCap sizes
// its access list.
func (a *analyzer) replayThread(bid, tid int, budget int64, accCap int) (rthread, []roob, int64) {
	th := rthread{bid: bid, tid: tid, acc: make([]raccess, 0, accCap)}
	var oobs []roob
	var (
		regs  [isa.NumRegs]uint64
		rt    [isa.NumRegs]bool // register taint
		preds [isa.NumPreds]bool
		pt    [isa.NumPreds]bool // predicate taint
	)
	// Thread-private local memory, byte-granular with byte taint.
	var local map[uint64]byte
	var localT map[uint64]bool
	code := a.prog.Code
	ws := a.conf.WarpSize
	sr := func(k isa.SregKind) uint64 {
		switch k {
		case isa.SregTid:
			return uint64(tid)
		case isa.SregNtid:
			return uint64(a.k.BlockDim)
		case isa.SregCtaid:
			return uint64(bid)
		case isa.SregNctaid:
			return uint64(a.k.GridDim)
		case isa.SregLane:
			return uint64(tid % ws)
		case isa.SregWarp:
			return uint64(tid / ws)
		case isa.SregGtid:
			return uint64(bid*a.k.BlockDim + tid)
		}
		return 0
	}

	var steps int64
	pc := 0
	for {
		if steps >= budget || pc < 0 || pc >= len(code) {
			return th, oobs, steps // budget or runaway: abandoned
		}
		steps++
		in := &code[pc]
		// Guard.
		exec := true
		if in.Pred != isa.NoPred {
			if pt[in.Pred] {
				return th, oobs, steps // tainted guard: control unknowable
			}
			exec = preds[in.Pred]
			if in.PredNeg {
				exec = !exec
			}
		}
		if !exec {
			pc++
			continue
		}

		src := func(r isa.Reg) uint64 { return regs[r] }
		b := func() uint64 {
			if in.UseImm {
				return uint64(in.Imm)
			}
			return src(in.SrcB)
		}
		bt := func() bool { return !in.UseImm && rt[in.SrcB] }
		f := func(r isa.Reg) float64 { return math.Float64frombits(regs[r]) }
		fb := func() float64 {
			if in.UseImm {
				return math.Float64frombits(uint64(in.Imm))
			}
			return f(in.SrcB)
		}
		set := func(v uint64, taint bool) {
			regs[in.Dst] = v
			rt[in.Dst] = taint
		}
		setF := func(v float64, taint bool) { set(math.Float64bits(v), taint) }
		ta := func() bool { return rt[in.SrcA] }

		switch in.Op {
		case isa.OpNop, isa.OpMembar:
			pc++
		case isa.OpAcqMark, isa.OpRelMark:
			pc++
		case isa.OpBar:
			th.bars++
			pc++
		case isa.OpBra:
			if in.Pred != isa.NoPred && pt[in.Pred] {
				return th, oobs, steps
			}
			pc = in.Tgt
		case isa.OpExit:
			th.ok = true
			return th, oobs, steps
		case isa.OpMov:
			if in.UseImm {
				set(uint64(in.Imm), false)
			} else {
				set(src(in.SrcA), ta())
			}
			pc++
		case isa.OpSreg:
			set(sr(isa.SregKind(in.Imm)), false)
			pc++
		case isa.OpSelp:
			if pt[in.PD] {
				set(0, true)
			} else if preds[in.PD] {
				set(src(in.SrcA), ta())
			} else {
				set(src(in.SrcC), rt[in.SrcC])
			}
			pc++
		case isa.OpAdd:
			set(src(in.SrcA)+b(), ta() || bt())
			pc++
		case isa.OpSub:
			set(src(in.SrcA)-b(), ta() || bt())
			pc++
		case isa.OpMul:
			set(uint64(int64(src(in.SrcA))*int64(b())), ta() || bt())
			pc++
		case isa.OpDiv:
			d := int64(b())
			if d == 0 {
				set(0, ta() || bt())
			} else {
				set(uint64(int64(src(in.SrcA))/d), ta() || bt())
			}
			pc++
		case isa.OpRem:
			d := int64(b())
			if d == 0 {
				set(0, ta() || bt())
			} else {
				set(uint64(int64(src(in.SrcA))%d), ta() || bt())
			}
			pc++
		case isa.OpMin:
			x, y := int64(src(in.SrcA)), int64(b())
			if y < x {
				x = y
			}
			set(uint64(x), ta() || bt())
			pc++
		case isa.OpMax:
			x, y := int64(src(in.SrcA)), int64(b())
			if y > x {
				x = y
			}
			set(uint64(x), ta() || bt())
			pc++
		case isa.OpAnd:
			set(src(in.SrcA)&b(), ta() || bt())
			pc++
		case isa.OpOr:
			set(src(in.SrcA)|b(), ta() || bt())
			pc++
		case isa.OpXor:
			set(src(in.SrcA)^b(), ta() || bt())
			pc++
		case isa.OpNot:
			set(^src(in.SrcA), ta())
			pc++
		case isa.OpShl:
			set(src(in.SrcA)<<(b()&63), ta() || bt())
			pc++
		case isa.OpShr:
			set(uint64(int64(src(in.SrcA))>>(b()&63)), ta() || bt())
			pc++
		case isa.OpMad:
			set(uint64(int64(src(in.SrcA))*int64(b())+int64(src(in.SrcC))), ta() || bt() || rt[in.SrcC])
			pc++
		case isa.OpFAdd:
			setF(f(in.SrcA)+fb(), ta() || bt())
			pc++
		case isa.OpFSub:
			setF(f(in.SrcA)-fb(), ta() || bt())
			pc++
		case isa.OpFMul:
			setF(f(in.SrcA)*fb(), ta() || bt())
			pc++
		case isa.OpFDiv:
			setF(f(in.SrcA)/fb(), ta() || bt())
			pc++
		case isa.OpFMin:
			setF(math.Min(f(in.SrcA), fb()), ta() || bt())
			pc++
		case isa.OpFMax:
			setF(math.Max(f(in.SrcA), fb()), ta() || bt())
			pc++
		case isa.OpFSqrt:
			setF(math.Sqrt(f(in.SrcA)), ta())
			pc++
		case isa.OpFExp:
			setF(math.Exp(f(in.SrcA)), ta())
			pc++
		case isa.OpFLog:
			setF(math.Log(f(in.SrcA)), ta())
			pc++
		case isa.OpFSin:
			setF(math.Sin(f(in.SrcA)), ta())
			pc++
		case isa.OpFCos:
			setF(math.Cos(f(in.SrcA)), ta())
			pc++
		case isa.OpFAbs:
			setF(math.Abs(f(in.SrcA)), ta())
			pc++
		case isa.OpItoF:
			setF(float64(int64(src(in.SrcA))), ta())
			pc++
		case isa.OpFtoI:
			set(uint64(int64(f(in.SrcA))), ta())
			pc++
		case isa.OpSetp:
			preds[in.PD] = intCmp(in.Cmp, int64(src(in.SrcA)), int64(b()))
			pt[in.PD] = ta() || bt()
			pc++
		case isa.OpFSetp:
			preds[in.PD] = floatCmp(in.Cmp, f(in.SrcA), fb())
			pt[in.PD] = ta() || bt()
			pc++
		case isa.OpLd, isa.OpSt, isa.OpAtom:
			if rt[in.SrcA] {
				return th, oobs, steps // tainted address
			}
			addr := src(in.SrcA) + uint64(in.Imm)
			switch in.Space {
			case isa.SpaceParam:
				idx := int(addr / 8)
				if in.Op != isa.OpLd || idx < 0 || idx >= len(a.k.Params) {
					return th, oobs, steps // the simulator faults here
				}
				set(a.k.Params[idx], false)
			case isa.SpaceLocal:
				if local == nil {
					local, localT = map[uint64]byte{}, map[uint64]bool{}
				}
				sz := uint64(in.Size)
				switch in.Op {
				case isa.OpLd:
					var v uint64
					taint := in.Float && in.Size == 4
					for i := uint64(0); i < sz; i++ {
						v |= uint64(local[addr+i]) << (8 * i)
						if localT[addr+i] {
							taint = true
						}
					}
					set(v, taint)
				case isa.OpSt:
					v := regs[in.SrcB]
					dirty := rt[in.SrcB] || (in.Float && in.Size == 4)
					for i := uint64(0); i < sz; i++ {
						local[addr+i] = byte(v >> (8 * i))
						localT[addr+i] = dirty
					}
				case isa.OpAtom:
					set(0, true) // local atomics are not modeled exactly
					for i := uint64(0); i < sz; i++ {
						localT[addr+i] = true
					}
				}
			case isa.SpaceShared:
				if addr+uint64(in.Size) > uint64(a.k.SharedBytes) {
					oobs = append(oobs, roob{bid: bid, tid: tid, pc: pc, rel: addr, size: int(in.Size)})
					// The simulator fails the launch here; record the
					// witness payload and keep walking (completeness is
					// already void via the oob list).
					if in.Op != isa.OpSt {
						set(0, true)
					}
					pc++
					continue
				}
				fl := raShared
				switch in.Op {
				case isa.OpSt:
					fl |= raWrite
				case isa.OpAtom:
					fl |= raAtomic
					set(0, true)
				default:
					set(0, true) // another thread may have written it
				}
				th.acc = append(th.acc, raccess{addr: addr, pc: int32(pc), bar: int32(th.bars), size: uint16(in.Size), flags: fl})
			case isa.SpaceGlobal:
				var fl uint8
				switch in.Op {
				case isa.OpSt:
					fl |= raWrite
				case isa.OpAtom:
					fl |= raAtomic
					set(0, true)
				default:
					set(0, true)
				}
				th.acc = append(th.acc, raccess{addr: addr, pc: int32(pc), bar: int32(th.bars), size: uint16(in.Size), flags: fl})
			}
			pc++
		default:
			if in.Dst < isa.NumRegs {
				set(0, true)
			}
			pc++
		}
	}
}

// intCmp / floatCmp mirror the executor's comparison semantics
// (gpu/warp.go) exactly.
func intCmp(c isa.CmpOp, a, b int64) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	}
	return false
}

func floatCmp(c isa.CmpOp, a, b float64) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	}
	return false
}
