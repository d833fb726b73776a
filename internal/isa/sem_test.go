package isa

// A pin of the ISA's register semantics: every register opcode, every
// comparison and every atomic over a fixed table of edge operands,
// hashed into one digest.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"testing"
)

// semPinDigest is the SHA-256 of every hashed row below.
const semPinDigest = "1f84ac2cf1f2dbd75333dbb87754d45336780d36d16e6790e34cd297eec99068"

// Register and predicate roles in every row: sources r1-r3, the
// destination r4, and p5 as both the SETP target and the SELP selector.
// Every other register holds a sentinel that no row may change.
const (
	pinA, pinB, pinC, pinD = Reg(1), Reg(2), Reg(3), Reg(4)
	pinP                   = Pred(5)
)

func pinSentinel(r int) uint64 { return 0xA5A5_0000_0000_0000 | uint64(r) }

// pinVals is the operand table: integer edges (0, ±1, MinInt64,
// MaxInt64, shift counts 63, 64, 65 and -1, divisors 0 and -1) and
// float bit patterns (NaN, ±Inf, -0, 0.5, 1e300).
var pinVals = []uint64{
	0, 1, ^uint64(0), 1 << 63, 1<<63 - 1, 2, 7, 63, 64, 65, 1000003,
	math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)),
	math.Float64bits(math.Inf(-1)), math.Float64bits(math.Copysign(0, -1)),
	math.Float64bits(0.5), math.Float64bits(1e300), math.Float64bits(-1e300),
	math.Float64bits(1), math.Float64bits(-2.5), math.Float64bits(3),
}

// pinFtoI holds the floats Go converts to int64 with a defined result:
// NaN, ±Inf and out-of-range values convert implementation-defined.
var pinFtoI = []float64{
	0, math.Copysign(0, -1), 0.5, -0.5, 1, -1, 2.5, -7.75, 1e15, -1e15,
	1 << 62, -(1 << 63), 9.2e18,
}

// floatResult reports whether op writes a float computed by the FPU;
// such results hash NaN as one canonical value, because which NaN an
// invalid operation or a NaN operand yields differs between CPUs.
func floatResult(op Op) bool {
	switch op {
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFMin, OpFMax,
		OpFSqrt, OpFAbs, OpItoF:
		return true
	}
	return false
}

// pinHasher hashes rows of fixed-width little-endian words.
type pinHasher struct {
	h   hash.Hash
	buf []byte
}

func (p *pinHasher) row(words ...uint64) {
	p.buf = p.buf[:0]
	for _, w := range words {
		p.buf = binary.LittleEndian.AppendUint64(p.buf, w)
	}
	p.h.Write(p.buf)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// executor runs one register instruction on thread state s, placed by
// co (nil for none).
type executor func(s *State, in *Instr, co *Coord)

// execOne runs the instruction through Exec.
func execOne(s *State, in *Instr, co *Coord) { s.Exec([]Instr{*in}, co) }

// execLane runs the instruction through ExecLanes, with s as the only
// active lane of a 32-lane warp: lane co.Tid mod 32, or lane 0.
func execLane(s *State, in *Instr, co *Coord) {
	var c Coord
	if co != nil {
		c = *co
	}
	l := 0
	if c.WarpSize > 0 {
		l = c.Tid % c.WarpSize
	}
	ws := make([]State, 32)
	ws[l] = *s
	c.Tid -= l
	ExecLanes(in, ws, 1<<l, c)
	*s = ws[l]
}

// pinState runs one register instruction through run on a fresh state
// whose sources hold a, b and c and whose p5 holds p, checks that
// nothing but the instruction's target changed, and returns r4 and p5.
func pinState(t *testing.T, run executor, in *Instr, a, b, c uint64, p bool, co *Coord) (uint64, bool) {
	var s State
	for r := range s.Regs {
		s.Regs[r] = pinSentinel(r)
	}
	s.Regs[pinA], s.Regs[pinB], s.Regs[pinC] = a, b, c
	if in.UseImm {
		s.Regs[pinB] = ^b // reading SrcB instead of Imm shows
	}
	s.Preds[pinP] = p
	before := s
	run(&s, in, co)
	for r := range s.Regs {
		if Reg(r) != pinD && s.Regs[r] != before.Regs[r] {
			t.Fatalf("%s wrote r%d", in, r)
		}
	}
	for q := range s.Preds {
		if Pred(q) != pinP && s.Preds[q] != before.Preds[q] {
			t.Fatalf("%s wrote p%d", in, q)
		}
	}
	return s.Regs[pinD], s.Preds[pinP]
}

// pinAtomic applies one atomic to a location holding m0 (stored at the
// access size) and returns the location's new content and the value
// the instruction returns.
func pinAtomic(op AtomOp, size uint8, m0, b, c uint64) (after, old uint64) {
	mask := ^uint64(0) >> (64 - 8*uint(size))
	old = m0 & mask
	return Atomic(op, old, b, c) & mask, old
}

// pinCoord places lane l in warp 1 of block 2 (96 threads) of a
// 3-block launch on a 32-lane warp.
func pinCoord(l int) *Coord {
	return &Coord{Tid: 32 + l, Ntid: 96, Ctaid: 2, Nctaid: 3, WarpSize: 32}
}

// TestRegisterSemanticsPinned runs every opcode from OpMov through
// OpFSetp and every atomic over the operand table, with UseImm both
// ways and every comparison, and compares the digest of the results.
// OpFExp, OpFLog, OpFSin and OpFCos compare against package math
// directly instead, and OpFtoI runs only over pinFtoI, so the digest
// holds on every platform. The register rows run through Exec and
// again through ExecLanes, and both digests must equal the pin.
func TestRegisterSemanticsPinned(t *testing.T) {
	for _, ex := range []struct {
		name string
		run  executor
	}{{"Exec", execOne}, {"ExecLanes", execLane}} {
		t.Run(ex.name, func(t *testing.T) {
			if got := pinDigest(t, ex.run); got != semPinDigest {
				t.Errorf("register semantics digest %s, pinned %s", got, semPinDigest)
			}
		})
	}
}

// pinDigest hashes the pin rows, running register instructions
// through run.
func pinDigest(t *testing.T, run executor) string {
	ph := &pinHasher{h: sha256.New()}
	for op := OpMov; op <= OpFSetp; op++ {
		for _, useImm := range []bool{false, true} {
			in := Instr{Op: op, Dst: pinD, SrcA: pinA, SrcB: pinB, SrcC: pinC, PD: pinP, Pred: NoPred, UseImm: useImm}
			switch op {
			case OpSreg:
				for _, l := range []int{0, 5, 31} {
					for k := SregKind(0); k <= SregGtid+1; k++ {
						in.Imm = int64(k)
						d, _ := pinState(t, run, &in, 0, 0, 0, false, pinCoord(l))
						ph.row(uint64(op), b2u(useImm), uint64(l), uint64(k), d)
					}
				}
				continue
			case OpFExp, OpFLog, OpFSin, OpFCos:
				ref := map[Op]func(float64) float64{
					OpFExp: math.Exp, OpFLog: math.Log, OpFSin: math.Sin, OpFCos: math.Cos,
				}[op]
				for _, a := range pinVals {
					d, _ := pinState(t, run, &in, a, 0, 0, false, nil)
					want := ref(math.Float64frombits(a))
					if got := math.Float64frombits(d); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Errorf("%s(%v) = %v, math gives %v", op, math.Float64frombits(a), got, want)
					}
				}
				continue
			case OpFtoI:
				for _, f := range pinFtoI {
					d, _ := pinState(t, run, &in, math.Float64bits(f), 0, 0, false, nil)
					ph.row(uint64(op), b2u(useImm), math.Float64bits(f), d)
				}
				continue
			}
			cmps, cs, ps := []CmpOp{0}, []uint64{0}, []bool{false}
			switch op {
			case OpSetp, OpFSetp:
				cmps = []CmpOp{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE, CmpGE + 1}
			case OpMad:
				cs = pinVals
			case OpSelp:
				cs, ps = pinVals, []bool{false, true}
			}
			for _, cmp := range cmps {
				in.Cmp = cmp
				for _, a := range pinVals {
					for _, b := range pinVals {
						in.Imm = int64(b)
						for _, c := range cs {
							for _, p := range ps {
								d, q := pinState(t, run, &in, a, b, c, p, nil)
								if floatResult(op) && math.IsNaN(math.Float64frombits(d)) {
									d = math.Float64bits(math.NaN())
								}
								ph.row(uint64(op), b2u(useImm), uint64(cmp), a, b, c, b2u(p), d, b2u(q))
							}
						}
					}
				}
			}
		}
	}
	for op := AtomAdd; op <= AtomMax+1; op++ {
		cs := []uint64{5}
		if op == AtomCAS {
			cs = pinVals
		}
		for _, size := range []uint8{4, 8} {
			for _, m0 := range pinVals {
				for _, b := range pinVals {
					for _, c := range cs {
						after, old := pinAtomic(op, size, m0, b, c)
						ph.row(uint64(OpAtom), uint64(op), uint64(size), m0, b, c, after, old)
					}
				}
			}
		}
	}
	return hex.EncodeToString(ph.h.Sum(nil))
}

// TestExecLanesMatchesExec runs every opcode through ExecLanes on a
// 32-lane warp, with UseImm both ways and every comparison. Lane l's
// sources walk the operand table at different strides, so the lanes of
// successive instructions cover every pair of table values, and every
// other register holds a per-lane sentinel. Under each mask, every
// active lane must end as Exec leaves that thread run alone, and every
// other lane must stay bit for bit as it was; a non-register opcode
// changes no lane.
func TestExecLanesMatchesExec(t *testing.T) {
	masks := []uint64{0, 1, 1 << 5, 1 << 31, 0x5555_5555, 0xAAAA_AAAA, 0xFFFF_FFFF}
	co := Coord{Tid: 32, Ntid: 96, Ctaid: 2, Nctaid: 3, WarpSize: 32} // warp 1 of block 2
	n := len(pinVals)
	for op := OpNop; op < opMax; op++ {
		cmps := []CmpOp{0}
		if op == OpSetp || op == OpFSetp {
			cmps = []CmpOp{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE, CmpGE + 1}
		}
		for _, useImm := range []bool{false, true} {
			for _, cmp := range cmps {
				for bi := range pinVals {
					in := Instr{Op: op, Dst: pinD, SrcA: pinA, SrcB: pinB, SrcC: pinC, PD: pinP,
						Pred: NoPred, UseImm: useImm, Cmp: cmp, Imm: int64(pinVals[bi])}
					if op == OpSreg {
						in.Imm = int64(bi % int(SregGtid+2))
					}
					var before [32]State
					for l := range before {
						s := &before[l]
						for r := range s.Regs {
							s.Regs[r] = pinSentinel(r) | uint64(l)<<32
						}
						s.Regs[pinA] = pinVals[l%n]
						s.Regs[pinB] = pinVals[(l+bi)%n]
						s.Regs[pinC] = pinVals[(5*l+bi)%n]
						for q := range s.Preds {
							s.Preds[q] = (l+bi+q)%3 == 0
						}
					}
					for _, mask := range masks {
						ws := before
						ExecLanes(&in, ws[:], mask, co)
						for l := range ws {
							want := before[l]
							if mask>>l&1 != 0 {
								c := co
								c.Tid += l
								want.Exec([]Instr{in}, &c)
							}
							if ws[l] != want {
								t.Fatalf("%s (imm %v, cmp %d, row %d) mask %#x: lane %d is %v, want %v",
									&in, useImm, cmp, bi, mask, l, ws[l], want)
							}
						}
					}
				}
			}
		}
	}
}

func TestInWindow(t *testing.T) {
	for _, tc := range []struct {
		off  uint64
		size uint8
		n    int
		want bool
	}{
		{0, 4, 256, true},
		{252, 4, 256, true},
		{253, 4, 256, false},
		{256, 1, 256, false},
		{^uint64(3), 4, 256, false}, // -4: the end wraps to 0
		{^uint64(0), 1, 256, false}, // -1
		{0, 1, 0, false},            // no window at all
		{0, 8, 4, false},
	} {
		if got := InWindow(tc.off, tc.size, tc.n); got != tc.want {
			t.Errorf("InWindow(%#x, %d, %d) = %v, want %v", tc.off, tc.size, tc.n, got, tc.want)
		}
	}
}

// TestOperandOrder pins the order Reads lists operands in, which the
// static analyzer's uninitialized-read findings follow.
func TestOperandOrder(t *testing.T) {
	mad := Instr{Op: OpMad, Dst: 1, SrcA: 2, SrcB: 3, SrcC: 4, Pred: 6}
	selp := Instr{Op: OpSelp, Dst: 1, SrcA: 2, SrcB: 3, SrcC: 4, PD: 5, Pred: 6}
	cas := Instr{Op: OpAtom, AOp: AtomCAS, Dst: 1, SrcA: 2, SrcB: 3, SrcC: 4, Pred: NoPred}
	for _, tc := range []struct {
		in    Instr
		regs  []Reg
		preds []Pred
		wr    int
		wp    int
	}{
		{mad, []Reg{2, 4, 3}, []Pred{6}, 1, -1},
		{selp, []Reg{2, 4}, []Pred{6, 5}, 1, -1},
		{cas, []Reg{2, 3, 4}, nil, 1, -1},
		{Instr{Op: OpSetp, SrcA: 2, Imm: 7, UseImm: true, PD: 3, Pred: NoPred}, []Reg{2}, nil, -1, 3},
		{Instr{Op: OpSt, SrcA: 2, SrcB: 3, Pred: NoPred}, []Reg{2, 3}, nil, -1, -1},
		{Instr{Op: OpMov, Dst: 1, SrcA: 2, UseImm: true, Pred: NoPred}, nil, nil, 1, -1},
	} {
		regs, preds := tc.in.Reads(nil, nil)
		wr, wp := tc.in.Writes()
		if !slices.Equal(regs, tc.regs) || !slices.Equal(preds, tc.preds) || wr != tc.wr || wp != tc.wp {
			t.Errorf("%s: reads %v %v writes r%d p%d; want %v %v r%d p%d",
				&tc.in, regs, preds, wr, wp, tc.regs, tc.preds, tc.wr, tc.wp)
		}
	}
}
