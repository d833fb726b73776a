package gpu

// Differential testing of the SIMT execution engine: random structured
// programs (ALU ops, predicates, nested If regions, counted While
// loops, private memory traffic) run on the lockstep warp engine with
// its divergence stack, and independently on a scalar per-thread
// reference interpreter. For structured control flow both must produce
// identical architectural state for every thread.

import (
	"fmt"
	"math/rand"
	"testing"

	"haccrg/internal/isa"
)

// progGen builds random structured programs.
type progGen struct {
	rng *rand.Rand
	b   *isa.Builder

	freeRegs  []isa.Reg  // registers the generator may clobber
	freePreds []isa.Pred // predicates the generator may clobber
	depth     int
	budget    int // remaining instructions
}

const (
	dtThreads  = 64
	dtSlotSize = 64 // private global bytes per thread
	dtOutRegs  = 8  // registers dumped at the end
)

func newProgGen(seed int64) *progGen {
	g := &progGen{
		rng: rand.New(rand.NewSource(seed)),
		b:   isa.NewBuilder(fmt.Sprintf("diff-%d", seed)),
	}
	for r := isa.Reg(4); r < 16; r++ {
		g.freeRegs = append(g.freeRegs, r)
	}
	for p := isa.Pred(0); p < 6; p++ {
		g.freePreds = append(g.freePreds, p)
	}
	return g
}

func (g *progGen) reg() isa.Reg   { return g.freeRegs[g.rng.Intn(len(g.freeRegs))] }
func (g *progGen) pred() isa.Pred { return g.freePreds[g.rng.Intn(len(g.freePreds))] }

// reserve temporarily removes a register and predicate from the
// clobber pool (loop counters must stay stable inside bodies).
func (g *progGen) reserve() (isa.Reg, isa.Pred, func()) {
	ri := g.rng.Intn(len(g.freeRegs))
	r := g.freeRegs[ri]
	g.freeRegs = append(g.freeRegs[:ri], g.freeRegs[ri+1:]...)
	pi := g.rng.Intn(len(g.freePreds))
	p := g.freePreds[pi]
	g.freePreds = append(g.freePreds[:pi], g.freePreds[pi+1:]...)
	return r, p, func() {
		g.freeRegs = append(g.freeRegs, r)
		g.freePreds = append(g.freePreds, p)
	}
}

// gen emits one random construct.
func (g *progGen) gen() {
	if g.budget <= 0 {
		return
	}
	g.budget--
	b := g.b
	switch pick := g.rng.Intn(20); {
	case pick < 8: // plain ALU
		ops := []func(d, a, s isa.Reg) *isa.Builder{
			b.Add, b.Sub, b.Mul, b.And, b.Or, b.Xor, b.Min, b.Max,
		}
		ops[g.rng.Intn(len(ops))](g.reg(), g.reg(), g.reg())
	case pick < 10: // immediates
		switch g.rng.Intn(4) {
		case 0:
			b.Movi(g.reg(), int64(g.rng.Intn(1000)-500))
		case 1:
			b.Addi(g.reg(), g.reg(), int64(g.rng.Intn(100)))
		case 2:
			b.Shli(g.reg(), g.reg(), int64(g.rng.Intn(8)))
		case 3:
			b.Andi(g.reg(), g.reg(), int64(g.rng.Intn(1<<16)))
		}
	case pick < 11: // division (defined-by-us semantics for zero)
		if g.rng.Intn(2) == 0 {
			b.Div(g.reg(), g.reg(), g.reg())
		} else {
			b.Rem(g.reg(), g.reg(), g.reg())
		}
	case pick < 13: // predicates and select
		p := g.pred()
		b.Setp(p, isa.CmpOp(g.rng.Intn(6)), g.reg(), g.reg())
		b.Selp(g.reg(), p, g.reg(), g.reg())
	case pick < 15: // private memory round trip
		addr := g.reg()
		val := g.reg()
		off := int64(g.rng.Intn(dtSlotSize/8)) * 8
		// addr = slotBase + tid*slot + off; slotBase in r2, tid in r1.
		b.Muli(addr, 1, dtSlotSize)
		b.Add(addr, addr, 2)
		b.St(isa.SpaceGlobal, addr, off, val, 8)
		b.Ld(val, isa.SpaceGlobal, addr, off, 8)
	case pick < 18: // divergent If region
		if g.depth >= 2 {
			g.gen()
			return
		}
		p := g.pred()
		b.Setp(p, isa.CmpOp(g.rng.Intn(6)), g.reg(), g.reg())
		if g.rng.Intn(2) == 0 {
			b.If(p)
		} else {
			b.IfNot(p)
		}
		g.depth++
		for n := g.rng.Intn(4) + 1; n > 0; n-- {
			g.gen()
		}
		g.depth--
		b.EndIf()
	default: // counted loop with a divergent early-exit style body
		if g.depth >= 2 {
			g.gen()
			return
		}
		ctr, p, release := g.reserve()
		trips := int64(g.rng.Intn(5) + 1)
		b.Movi(ctr, 0)
		b.Setpi(p, isa.CmpLT, ctr, trips)
		b.While(p)
		g.depth++
		for n := g.rng.Intn(3) + 1; n > 0; n-- {
			g.gen()
		}
		g.depth--
		b.Addi(ctr, ctr, 1)
		b.Setpi(p, isa.CmpLT, ctr, trips)
		b.EndWhile()
		release()
	}
}

// build returns the finished random program: preamble seeds registers
// from the thread id, the body is random, and the epilogue dumps
// dtOutRegs registers to the thread's private output slot.
func (g *progGen) build(outBase uint64) *isa.Program {
	b := g.b
	b.Sreg(1, isa.SregTid)
	b.Ldp(2, 0) // scratch slot base
	b.Ldp(3, 1) // output base
	for r := isa.Reg(4); r < 16; r++ {
		b.Muli(r, 1, int64(r)*2654435761)
		b.Addi(r, r, int64(r)*97)
	}
	g.budget = 40 + g.rng.Intn(40)
	for g.budget > 0 {
		g.gen()
	}
	// Epilogue: out[tid*dtOutRegs + i] = r(4+i).
	b.Muli(20, 1, dtOutRegs*8)
	b.Add(20, 20, 3)
	for i := 0; i < dtOutRegs; i++ {
		b.St(isa.SpaceGlobal, 20, int64(i*8), isa.Reg(4+i), 8)
	}
	b.Exit()
	_ = outBase
	return b.MustBuild()
}

// scalarRef executes the program for one thread with purely scalar
// semantics: branches taken iff the guard holds for this thread.
func scalarRef(t *testing.T, prog *isa.Program, tid int, params []uint64, mem []byte) [dtOutRegs]uint64 {
	var ln isa.State
	c := isa.Coord{Tid: tid, Ntid: dtThreads, Nctaid: 1, WarpSize: 32}
	pc := 0
	steps := 0
	load := func(addr uint64, size int) uint64 {
		var v uint64
		for i := 0; i < size; i++ {
			v |= uint64(mem[addr+uint64(i)]) << (8 * i)
		}
		return v
	}
	store := func(addr uint64, size int, v uint64) {
		for i := 0; i < size; i++ {
			mem[addr+uint64(i)] = byte(v >> (8 * i))
		}
	}
	for {
		if steps++; steps > 1_000_000 {
			t.Fatalf("scalar reference ran away (tid %d)", tid)
		}
		in := &prog.Code[pc]
		guard := true
		if in.Pred != isa.NoPred {
			guard = ln.Preds[in.Pred]
			if in.PredNeg {
				guard = !guard
			}
		}
		switch in.Op {
		case isa.OpExit:
			if guard {
				var out [dtOutRegs]uint64
				copy(out[:], ln.Regs[4:4+dtOutRegs])
				return out
			}
			pc++
		case isa.OpBra:
			if guard {
				pc = in.Tgt
			} else {
				pc++
			}
		case isa.OpLd:
			if guard {
				if in.Space == isa.SpaceParam {
					ln.Regs[in.Dst] = params[(ln.Regs[in.SrcA]+uint64(in.Imm))/8]
				} else {
					ln.Regs[in.Dst] = load(ln.Regs[in.SrcA]+uint64(in.Imm), int(in.Size))
				}
			}
			pc++
		case isa.OpSt:
			if guard {
				store(ln.Regs[in.SrcA]+uint64(in.Imm), int(in.Size), ln.Regs[in.SrcB])
			}
			pc++
		default:
			if guard {
				ln.Exec(prog.Code[pc:pc+1], &c)
			}
			pc++
		}
	}
}

func TestDifferentialRandomPrograms(t *testing.T) {
	const programs = 60
	for seed := int64(0); seed < programs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := newProgGen(seed)
			dev, err := NewDevice(TestConfig(), 1<<18, nil)
			if err != nil {
				t.Fatal(err)
			}
			scratch := dev.MustMalloc(dtThreads * dtSlotSize)
			out := dev.MustMalloc(dtThreads * dtOutRegs * 8)
			prog := g.build(out)
			k := &Kernel{
				Name: prog.Name, Prog: prog,
				GridDim: 1, BlockDim: dtThreads,
				Params: []uint64{scratch, out},
			}
			watchBusy(t, dev)
			if _, err := dev.Launch(k); err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, prog.Disassemble())
			}
			// Scalar reference over a private copy of the memory image.
			params := []uint64{scratch, out}
			for tid := 0; tid < dtThreads; tid++ {
				mem := make([]byte, 1<<18)
				want := scalarRef(t, prog, tid, params, mem)
				for i := 0; i < dtOutRegs; i++ {
					got, err := dev.Global.Load(out+uint64(tid*dtOutRegs*8+i*8), 8)
					if err != nil {
						t.Fatal(err)
					}
					if got != want[i] {
						t.Fatalf("seed %d tid %d reg r%d: warp engine %#x, scalar ref %#x\n%s",
							seed, tid, 4+i, got, want[i], prog.Disassemble())
					}
				}
			}
		})
	}
}
