package staticrace

import "haccrg/internal/isa"

// The concrete replayer runs every thread of the launch independently
// through the ISA's executable semantics — isa.State.Exec, the code the
// simulator runs per lane — and the simulator's memory rules, tracking
// a taint bit per register and predicate. Values loaded from shared or
// global memory are tainted — another thread may have written them, so
// their content is schedule-dependent — and a thread is abandoned the
// moment taint reaches a branch guard, an exit guard, or a memory
// address. A taint-free replay is therefore *exact*: every control
// decision and every address is a deterministic function of
// thread-local state, so the recorded per-thread access sequence is
// what the simulator will produce under any schedule
// (TestReplayMatchesSimulator checks it). That exactness is what the
// quiet-granule refinement and the provable-race witnesses (witness.go)
// stand on.

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

// rops is one instruction's operands as replay taint masks, decoded
// from isa's operand sets once per Analyze.
type rops struct {
	reads uint32 // registers read
	wreg  uint32 // register written
	wpred uint8  // predicate written
	// run counts the straight run of unguarded register instructions
	// other than OpSelp that starts here: their taint follows from the
	// masks alone, so the replay executes the run in one call.
	run int32
}

// replayOps returns the per-pc operand masks, decoding them on first
// use.
func (a *analyzer) replayOps() []rops {
	if a.ops != nil {
		return a.ops
	}
	code := a.prog.Code
	a.ops = make([]rops, len(code))
	var regs []isa.Reg
	var preds []isa.Pred
	for pc := len(code) - 1; pc >= 0; pc-- {
		in := &code[pc]
		o := &a.ops[pc]
		regs, preds = in.Reads(regs[:0], preds[:0])
		for _, r := range regs {
			o.reads |= 1 << r
		}
		if r, p := in.Writes(); r >= 0 {
			o.wreg = 1 << r
		} else if p >= 0 {
			o.wpred = 1 << p
		}
		if in.Op.IsReg() && in.Op != isa.OpSelp && in.Pred == isa.NoPred {
			o.run = 1
			if pc+1 < len(code) {
				o.run += a.ops[pc+1].run
			}
		}
	}
	return a.ops
}

// rstate is one replayed thread's registers, each with a taint bit,
// and its thread-private local memory, byte-granular with byte taint.
type rstate struct {
	isa.State
	rt     uint32 // register taint, bit r for register r
	pt     uint8  // predicate taint
	local  map[uint64]byte
	localT map[uint64]bool
}

// taintRun applies the taint transfer of a straight run to s and
// returns the span [lo, hi) of the run that holds every untainted
// result; lo == hi when none is.
func (s *rstate) taintRun(ops []rops) (lo, hi int) {
	rt, pt := s.rt, s.pt
	lo = len(ops)
	for i, o := range ops {
		if rt&o.reads != 0 {
			rt |= o.wreg
			pt |= o.wpred
			continue
		}
		rt &^= o.wreg
		pt &^= o.wpred
		if lo == len(ops) {
			lo = i
		}
		hi = i + 1
	}
	s.rt, s.pt = rt, pt
	return lo, hi
}

// replayThread runs one thread to Exit or abandonment; accCap sizes
// its access list.
func (a *analyzer) replayThread(bid, tid int, budget int64, accCap int) (rthread, []roob, int64) {
	th := rthread{bid: bid, tid: tid, acc: make([]raccess, 0, accCap)}
	var oobs []roob
	var s rstate
	code := a.prog.Code
	ops := a.replayOps()
	c := isa.Coord{Tid: tid, Ntid: a.k.BlockDim, Ctaid: bid, Nctaid: a.k.GridDim, WarpSize: a.conf.WarpSize}

	var steps int64
	pc := 0
	for {
		if steps >= budget || pc < 0 || pc >= len(code) {
			return th, oobs, steps // budget or runaway: abandoned
		}
		if n := int(ops[pc].run); n > 0 {
			// A register instruction's result is tainted when a
			// register it reads is. A tainted value never reaches an
			// address, a guard or a recorded access, so only the span
			// of the run holding the untainted results executes; every
			// step is counted.
			n = int(min(int64(n), budget-steps))
			if lo, hi := s.taintRun(ops[pc : pc+n]); lo < hi {
				s.Exec(code[pc+lo:pc+hi], &c)
			}
			steps += int64(n)
			pc += n
			continue
		}
		steps++
		in := &code[pc]
		if in.Pred != isa.NoPred {
			if s.pt&(1<<in.Pred) != 0 {
				return th, oobs, steps // tainted guard: control unknowable
			}
			if s.Preds[in.Pred] == in.PredNeg {
				pc++
				continue
			}
		}
		switch {
		case in.Op == isa.OpSelp:
			// The result is tainted only when the selector or the
			// selected source is.
			sel := in.SrcC
			if s.Preds[in.PD] {
				sel = in.SrcA
			}
			if s.pt&(1<<in.PD) != 0 || s.rt&(1<<sel) != 0 {
				s.rt |= 1 << in.Dst
			} else {
				s.rt &^= 1 << in.Dst
				s.Exec(code[pc:pc+1], &c)
			}
		case in.Op.IsReg(): // guarded
			if lo, hi := s.taintRun(ops[pc : pc+1]); lo < hi {
				s.Exec(code[pc:pc+1], &c)
			}
		case in.IsMem():
			if !a.replayAccess(&s, &th, &oobs, in, pc) {
				return th, oobs, steps
			}
		case in.Op == isa.OpBar:
			th.bars++
		case in.Op == isa.OpBra:
			pc = in.Tgt
			continue
		case in.Op == isa.OpExit:
			th.ok = true
			return th, oobs, steps
		}
		pc++
	}
}

// replayAccess replays the LD, ST or ATOM at pc, recording a shared or
// global access in th and a shared out-of-bounds one in oobs. It
// returns false when the thread must be abandoned: a tainted address,
// or a param access the simulator faults on.
func (a *analyzer) replayAccess(s *rstate, th *rthread, oobs *[]roob, in *isa.Instr, pc int) bool {
	if s.rt&(1<<in.SrcA) != 0 {
		return false // tainted address
	}
	addr := s.Regs[in.SrcA] + uint64(in.Imm)
	dst := uint32(1) << in.Dst
	switch in.Space {
	case isa.SpaceParam:
		idx := int(addr / 8)
		if in.Op != isa.OpLd || idx < 0 || idx >= len(a.k.Params) {
			return false // the simulator faults here
		}
		s.Regs[in.Dst] = a.k.Params[idx]
		s.rt &^= dst
	case isa.SpaceLocal:
		if s.local == nil {
			s.local, s.localT = map[uint64]byte{}, map[uint64]bool{}
		}
		sz := uint64(in.Size)
		switch in.Op {
		case isa.OpLd:
			var v uint64
			taint := in.Float && in.Size == 4
			for i := uint64(0); i < sz; i++ {
				v |= uint64(s.local[addr+i]) << (8 * i)
				if s.localT[addr+i] {
					taint = true
				}
			}
			s.Regs[in.Dst] = v
			s.rt &^= dst
			if taint {
				s.rt |= dst
			}
		case isa.OpSt:
			v := s.Regs[in.SrcB]
			dirty := s.rt&(1<<in.SrcB) != 0 || (in.Float && in.Size == 4)
			for i := uint64(0); i < sz; i++ {
				s.local[addr+i] = byte(v >> (8 * i))
				s.localT[addr+i] = dirty
			}
		case isa.OpAtom:
			s.rt |= dst // local atomics are not modeled exactly
			for i := uint64(0); i < sz; i++ {
				s.localT[addr+i] = true
			}
		}
	case isa.SpaceShared, isa.SpaceGlobal:
		var fl uint8
		if in.Space == isa.SpaceShared {
			if !isa.InWindow(addr, in.Size, a.k.SharedBytes) {
				// The simulator fails the launch here; record the
				// witness payload and keep walking (completeness is
				// already void via the oob list).
				*oobs = append(*oobs, roob{bid: th.bid, tid: th.tid, pc: pc, rel: addr, size: int(in.Size)})
				if in.Op != isa.OpSt {
					s.rt |= dst
				}
				return true
			}
			fl = raShared
		}
		switch in.Op {
		case isa.OpSt:
			fl |= raWrite
		case isa.OpAtom:
			fl |= raAtomic
			s.rt |= dst
		default:
			s.rt |= dst // another thread may have written it
		}
		th.acc = append(th.acc, raccess{addr: addr, pc: int32(pc), bar: int32(th.bars), size: uint16(in.Size), flags: fl})
	}
	return true
}
