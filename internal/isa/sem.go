package isa

import (
	"math"
	"math/bits"
)

// The ISA's executable semantics: what a register instruction computes,
// what an atomic stores, which operands an instruction reads and
// writes, and the bounds of a windowed memory space. The simulator runs
// them per warp, the static analyzer's concrete replay per thread and
// its lint over the program text, so all three agree by construction.

// State is one thread's register file.
type State struct {
	Regs  [NumRegs]uint64
	Preds [NumPreds]bool
}

// Coord places one thread in its launch; the special registers read it.
type Coord struct {
	Tid      int // thread index within the block
	Ntid     int // threads per block
	Ctaid    int // block index within the grid
	Nctaid   int // blocks in the grid
	WarpSize int
}

// Sreg returns the thread's special register k; an unknown kind reads 0.
func (c *Coord) Sreg(k SregKind) uint64 {
	switch k {
	case SregTid:
		return uint64(c.Tid)
	case SregNtid:
		return uint64(c.Ntid)
	case SregCtaid:
		return uint64(c.Ctaid)
	case SregNctaid:
		return uint64(c.Nctaid)
	case SregLane:
		return uint64(c.Tid % c.WarpSize)
	case SregWarp:
		return uint64(c.Tid / c.WarpSize)
	case SregGtid:
		return uint64(c.Ctaid*c.Ntid + c.Tid)
	}
	return 0
}

// IsReg reports whether o is a register instruction, OpMov through
// OpFSetp: one that reads and writes registers and predicates only.
func (o Op) IsReg() bool { return o >= OpMov && o <= OpFSetp }

// Exec runs the register instructions of code on s in order; c
// supplies OpSreg. Other opcodes leave s unchanged. Integer ops are
// signed 64-bit and wrap; division and remainder by zero yield 0, and
// shift counts are taken mod 64. The concrete replay runs whole
// straight-line runs per call; ExecLanes is the warp-wide form.
func (s *State) Exec(code []Instr, c *Coord) {
	for i := range code {
		in := &code[i]
		// Operands load on use: most instructions read one register
		// and an immediate.
		a := func() uint64 { return s.Regs[in.SrcA] }
		b := func() uint64 {
			if in.UseImm {
				return uint64(in.Imm)
			}
			return s.Regs[in.SrcB]
		}
		fa := func() float64 { return math.Float64frombits(a()) }
		fb := func() float64 { return math.Float64frombits(b()) }
		var d uint64
		switch in.Op {
		case OpMov:
			if in.UseImm {
				d = uint64(in.Imm)
			} else {
				d = a()
			}
		case OpSreg:
			d = c.Sreg(SregKind(in.Imm))
		case OpSelp:
			if s.Preds[in.PD] {
				d = a()
			} else {
				d = s.Regs[in.SrcC]
			}
		case OpAdd:
			d = a() + b()
		case OpSub:
			d = a() - b()
		case OpMul:
			d = uint64(int64(a()) * int64(b()))
		case OpDiv:
			if y := int64(b()); y != 0 {
				d = uint64(int64(a()) / y)
			}
		case OpRem:
			if y := int64(b()); y != 0 {
				d = uint64(int64(a()) % y)
			}
		case OpMin:
			d = uint64(min(int64(a()), int64(b())))
		case OpMax:
			d = uint64(max(int64(a()), int64(b())))
		case OpAnd:
			d = a() & b()
		case OpOr:
			d = a() | b()
		case OpXor:
			d = a() ^ b()
		case OpNot:
			d = ^a()
		case OpShl:
			d = a() << (b() & 63)
		case OpShr:
			d = uint64(int64(a()) >> (b() & 63))
		case OpMad:
			d = uint64(int64(a())*int64(b()) + int64(s.Regs[in.SrcC]))
		case OpFAdd:
			d = math.Float64bits(fa() + fb())
		case OpFSub:
			d = math.Float64bits(fa() - fb())
		case OpFMul:
			d = math.Float64bits(fa() * fb())
		case OpFDiv:
			d = math.Float64bits(fa() / fb())
		case OpFMin:
			d = math.Float64bits(math.Min(fa(), fb()))
		case OpFMax:
			d = math.Float64bits(math.Max(fa(), fb()))
		case OpFSqrt:
			d = math.Float64bits(math.Sqrt(fa()))
		case OpFExp:
			d = math.Float64bits(math.Exp(fa()))
		case OpFLog:
			d = math.Float64bits(math.Log(fa()))
		case OpFSin:
			d = math.Float64bits(math.Sin(fa()))
		case OpFCos:
			d = math.Float64bits(math.Cos(fa()))
		case OpFAbs:
			d = math.Float64bits(math.Abs(fa()))
		case OpItoF:
			d = math.Float64bits(float64(int64(a())))
		case OpFtoI:
			d = uint64(int64(fa()))
		case OpSetp:
			s.Preds[in.PD] = compare(in.Cmp, int64(a()), int64(b()))
			continue
		case OpFSetp:
			s.Preds[in.PD] = compare(in.Cmp, fa(), fb())
			continue
		default:
			continue
		}
		s.Regs[in.Dst] = d
	}
}

// ExecLanes runs register instruction in once over a warp: on ws[l],
// as thread c.Tid+l, for every lane l set in mask. Lanes outside mask
// are untouched, and so is every lane for an opcode that is not a
// register instruction. Each lane computes what Exec computes for that
// thread alone (TestExecLanesMatchesExec). The simulator issues a
// whole warp's instruction here, switching on the opcode once rather
// than once per lane; the static analyzer's replay runs one thread
// through straight-line runs and stays on Exec, which costs less there.
func ExecLanes(in *Instr, ws []State, mask uint64, c Coord) {
	switch in.Op {
	case OpMov:
		if !in.UseImm {
			unaryLanes(in, ws, mask, func(a uint64) uint64 { return a })
		} else {
			for m := mask; m != 0; m &= m - 1 {
				ws[bits.TrailingZeros64(m)].Regs[in.Dst] = uint64(in.Imm)
			}
		}
	case OpSreg:
		k, base := SregKind(in.Imm), c.Tid
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			c.Tid = base + l
			ws[l].Regs[in.Dst] = c.Sreg(k)
		}
	case OpSelp:
		for m := mask; m != 0; m &= m - 1 {
			s := &ws[bits.TrailingZeros64(m)]
			if s.Preds[in.PD] {
				s.Regs[in.Dst] = s.Regs[in.SrcA]
			} else {
				s.Regs[in.Dst] = s.Regs[in.SrcC]
			}
		}
	case OpAdd:
		intLanes(in, ws, mask, func(a, b uint64) uint64 { return a + b })
	case OpSub:
		intLanes(in, ws, mask, func(a, b uint64) uint64 { return a - b })
	case OpMul:
		intLanes(in, ws, mask, func(a, b uint64) uint64 { return uint64(int64(a) * int64(b)) })
	case OpDiv:
		intLanes(in, ws, mask, func(a, b uint64) uint64 {
			if int64(b) == 0 {
				return 0
			}
			return uint64(int64(a) / int64(b))
		})
	case OpRem:
		intLanes(in, ws, mask, func(a, b uint64) uint64 {
			if int64(b) == 0 {
				return 0
			}
			return uint64(int64(a) % int64(b))
		})
	case OpMin:
		intLanes(in, ws, mask, func(a, b uint64) uint64 { return uint64(min(int64(a), int64(b))) })
	case OpMax:
		intLanes(in, ws, mask, func(a, b uint64) uint64 { return uint64(max(int64(a), int64(b))) })
	case OpAnd:
		intLanes(in, ws, mask, func(a, b uint64) uint64 { return a & b })
	case OpOr:
		intLanes(in, ws, mask, func(a, b uint64) uint64 { return a | b })
	case OpXor:
		intLanes(in, ws, mask, func(a, b uint64) uint64 { return a ^ b })
	case OpNot:
		unaryLanes(in, ws, mask, func(a uint64) uint64 { return ^a })
	case OpShl:
		intLanes(in, ws, mask, func(a, b uint64) uint64 { return a << (b & 63) })
	case OpShr:
		intLanes(in, ws, mask, func(a, b uint64) uint64 { return uint64(int64(a) >> (b & 63)) })
	case OpMad:
		for m := mask; m != 0; m &= m - 1 {
			s := &ws[bits.TrailingZeros64(m)]
			s.Regs[in.Dst] = uint64(int64(s.Regs[in.SrcA])*int64(operandB(s, in)) + int64(s.Regs[in.SrcC]))
		}
	case OpFAdd:
		floatLanes(in, ws, mask, func(a, b float64) float64 { return a + b })
	case OpFSub:
		floatLanes(in, ws, mask, func(a, b float64) float64 { return a - b })
	case OpFMul:
		floatLanes(in, ws, mask, func(a, b float64) float64 { return a * b })
	case OpFDiv:
		floatLanes(in, ws, mask, func(a, b float64) float64 { return a / b })
	case OpFMin:
		floatLanes(in, ws, mask, math.Min)
	case OpFMax:
		floatLanes(in, ws, mask, math.Max)
	case OpFSqrt:
		floatUnaryLanes(in, ws, mask, math.Sqrt)
	case OpFExp:
		floatUnaryLanes(in, ws, mask, math.Exp)
	case OpFLog:
		floatUnaryLanes(in, ws, mask, math.Log)
	case OpFSin:
		floatUnaryLanes(in, ws, mask, math.Sin)
	case OpFCos:
		floatUnaryLanes(in, ws, mask, math.Cos)
	case OpFAbs:
		floatUnaryLanes(in, ws, mask, math.Abs)
	case OpItoF:
		unaryLanes(in, ws, mask, func(a uint64) uint64 { return math.Float64bits(float64(int64(a))) })
	case OpFtoI:
		unaryLanes(in, ws, mask, func(a uint64) uint64 { return uint64(int64(math.Float64frombits(a))) })
	case OpSetp:
		for m := mask; m != 0; m &= m - 1 {
			s := &ws[bits.TrailingZeros64(m)]
			s.Preds[in.PD] = compare(in.Cmp, int64(s.Regs[in.SrcA]), int64(operandB(s, in)))
		}
	case OpFSetp:
		for m := mask; m != 0; m &= m - 1 {
			s := &ws[bits.TrailingZeros64(m)]
			s.Preds[in.PD] = compare(in.Cmp, math.Float64frombits(s.Regs[in.SrcA]), math.Float64frombits(operandB(s, in)))
		}
	}
}

// operandB returns the second operand of in on s: its immediate under
// UseImm, else register SrcB.
func operandB(s *State, in *Instr) uint64 {
	if in.UseImm {
		return uint64(in.Imm)
	}
	return s.Regs[in.SrcB]
}

// unaryLanes sets Dst to f(SrcA) on mask's lanes of ws.
func unaryLanes(in *Instr, ws []State, mask uint64, f func(a uint64) uint64) {
	for m := mask; m != 0; m &= m - 1 {
		s := &ws[bits.TrailingZeros64(m)]
		s.Regs[in.Dst] = f(s.Regs[in.SrcA])
	}
}

// intLanes sets Dst to f(SrcA, operand B) on mask's lanes of ws.
func intLanes(in *Instr, ws []State, mask uint64, f func(a, b uint64) uint64) {
	for m := mask; m != 0; m &= m - 1 {
		s := &ws[bits.TrailingZeros64(m)]
		s.Regs[in.Dst] = f(s.Regs[in.SrcA], operandB(s, in))
	}
}

// floatUnaryLanes is unaryLanes over float64 bit patterns.
func floatUnaryLanes(in *Instr, ws []State, mask uint64, f func(a float64) float64) {
	for m := mask; m != 0; m &= m - 1 {
		s := &ws[bits.TrailingZeros64(m)]
		s.Regs[in.Dst] = math.Float64bits(f(math.Float64frombits(s.Regs[in.SrcA])))
	}
}

// floatLanes is intLanes over float64 bit patterns.
func floatLanes(in *Instr, ws []State, mask uint64, f func(a, b float64) float64) {
	for m := mask; m != 0; m &= m - 1 {
		s := &ws[bits.TrailingZeros64(m)]
		s.Regs[in.Dst] = math.Float64bits(f(math.Float64frombits(s.Regs[in.SrcA]), math.Float64frombits(operandB(s, in))))
	}
}

// compare evaluates SETP (int64) and FSETP (float64) comparisons; an
// unknown operator is false, and so is every ordered comparison with a
// NaN.
func compare[T int64 | float64](c CmpOp, a, b T) bool {
	switch c {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	}
	return false
}

// Atomic returns the value an atomic of kind op stores over old, the
// location's prior content, given operands b and c; the instruction
// itself returns old. An unknown kind stores 0.
func Atomic(op AtomOp, old, b, c uint64) uint64 {
	switch op {
	case AtomAdd:
		return old + b
	case AtomInc:
		if old >= b {
			return 0
		}
		return old + 1
	case AtomExch:
		return b
	case AtomCAS:
		if old == b {
			return c
		}
		return old
	case AtomMin:
		if int64(b) < int64(old) {
			return b
		}
		return old
	case AtomMax:
		if int64(b) > int64(old) {
			return b
		}
		return old
	}
	return 0
}

// Reads appends the registers and the predicates the instruction reads
// to regs and preds. The order is fixed: predicates guard first, then
// OpSelp's selector; registers SrcA first, then SrcC, then SrcB.
func (in *Instr) Reads(regs []Reg, preds []Pred) ([]Reg, []Pred) {
	if in.Pred != NoPred {
		preds = append(preds, in.Pred)
	}
	switch in.Op {
	case OpNop, OpSreg, OpBra, OpExit, OpBar, OpMembar, OpRelMark:
	case OpMov:
		if !in.UseImm {
			regs = append(regs, in.SrcA)
		}
	case OpSelp:
		preds = append(preds, in.PD)
		regs = append(regs, in.SrcA, in.SrcC)
	case OpNot, OpFSqrt, OpFExp, OpFLog, OpFSin, OpFCos, OpFAbs, OpItoF, OpFtoI,
		OpLd, OpAcqMark:
		regs = append(regs, in.SrcA)
	case OpSt:
		regs = append(regs, in.SrcA, in.SrcB)
	case OpAtom:
		regs = append(regs, in.SrcA, in.SrcB)
		if in.AOp == AtomCAS {
			regs = append(regs, in.SrcC)
		}
	case OpMad:
		regs = append(regs, in.SrcA, in.SrcC)
		if !in.UseImm {
			regs = append(regs, in.SrcB)
		}
	default: // binary ALU ops, OpSetp and OpFSetp
		regs = append(regs, in.SrcA)
		if !in.UseImm {
			regs = append(regs, in.SrcB)
		}
	}
	return regs, preds
}

// Writes returns the register and the predicate the instruction
// writes, -1 for none.
func (in *Instr) Writes() (reg, pred int) {
	switch in.Op {
	case OpSetp, OpFSetp:
		return -1, int(in.PD)
	case OpNop, OpBra, OpExit, OpBar, OpMembar, OpAcqMark, OpRelMark, OpSt:
		return -1, -1
	}
	return int(in.Dst), -1
}

// InWindow reports whether an access of size bytes at offset off lies
// inside a window of n bytes: a block's shared memory or a thread's
// local memory. A negative offset wraps to a large one and lies
// outside, as does an access whose end would wrap.
func InWindow(off uint64, size uint8, n int) bool {
	return n > 0 && off < uint64(n) && uint64(size) <= uint64(n)-off
}
