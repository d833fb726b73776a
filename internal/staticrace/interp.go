package staticrace

import (
	"sort"

	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// Fixpoint tuning. widenAfter bounds how many times a block may be
// re-joined before growing symbol ranges are widened (to the next
// comparison-derived threshold, then ±∞); hardCap
// forces still-unstable values to Top so the iteration always
// terminates (adversarial programs from the fuzzer can otherwise
// alternate forever).
const (
	widenAfter = 8
	hardCap    = 64
)

// predval is the abstract value of a predicate register.
//
// When hasCond is set the predicate was produced by a SETP whose
// operand difference is affine: pred == true  ⇔  diff cmp 0. The
// condition survives even when the truth value is known (known/val),
// because edge refinement fixes the value along a path while the
// condition is still what the lints inspect.
type predval struct {
	known   bool
	val     bool
	hasCond bool
	diff    Expr
	cmp     isa.CmpOp

	// Source form of the SETP that produced the condition, kept while
	// neither operand register has been overwritten (live). Joins use it
	// to re-derive the condition over the merged registers: at a loop
	// head the counter register maps to its φ, so the guard becomes
	// "φ - bound cmp 0" and edge refinement can bound the φ range —
	// without this, loop-exit guards die at the head join and counter
	// ranges widen to ±∞, making every footprint in the body unknown.
	live   bool
	srcA   isa.Reg
	srcB   isa.Reg
	useImm bool
	imm    int64
}

func (p predval) equal(o predval) bool {
	return p.known == o.known && p.val == o.val &&
		p.hasCond == o.hasCond && p.cmp == o.cmp && p.diff.equal(o.diff) &&
		p.live == o.live && p.srcA == o.srcA && p.srcB == o.srcB &&
		p.useImm == o.useImm && p.imm == o.imm
}

// sameSource reports that two predicate values were produced by the
// same still-live SETP comparison.
func (p predval) sameSource(o predval) bool {
	return p.live && o.live && p.cmp == o.cmp && p.srcA == o.srcA &&
		p.useImm == o.useImm &&
		((p.useImm && p.imm == o.imm) || (!p.useImm && p.srcB == o.srcB))
}

// state is the abstract machine state at a program point: one Expr per
// register, one predval per predicate, and an interval per symbol.
// approx records that the path to this point crossed a predicated
// branch whose condition could not be refined — footprints are still
// over-approximations, but "definite" lints (shared OOB) must not
// fire from such states.
type state struct {
	regs   [isa.NumRegs]Expr
	preds  [isa.NumPreds]predval
	ranges []ival
	approx bool
}

func (s *state) clone() *state {
	c := *s
	c.ranges = append([]ival(nil), s.ranges...)
	return &c
}

// symInfo is analyzer-side metadata for one symbol.
type symInfo struct {
	name   string
	tidDep bool // value is definitely a non-constant function of the thread id
}

type phiKey struct {
	block int
	reg   int // register number; predicates use NumRegs+p
}

// analyzer runs the abstract interpretation for one launched kernel.
type analyzer struct {
	prog *isa.Program
	cfg  *CFG
	k    *gpu.Kernel
	conf Config

	syms   []symInfo
	symMax []ival // widest range ever recorded per symbol (join fallback)
	phis   map[phiKey]symID
	drvs   map[int]symID // pc -> derived symbol (AND-mask / SHR / DIV results)

	// Congruence solver state: per-symbol recorded inputs and the
	// solved stride/offset congruences (see cong.go).
	symIn   []symInputs
	symCong []cong

	// Barrier-epoch reachability, built on first use (see epoch.go).
	epochs *epochInfo

	// Widening thresholds: sorted constants harvested from the
	// program's comparisons and the launch geometry. A growing range is
	// widened to the next threshold instead of ±∞, so a counted loop's
	// φ stabilizes at its guard bound and stays finite — which both
	// keeps footprints enumerable and lets assume() refine the guard
	// (its wrap check rejects unbounded intervals).
	thresholds []int64

	in     []*state
	visits []int

	// Final-pass products.
	sites   []*siteAcc      // by pc: access summary, nil if no mem site
	brPred  map[int]predval // predicated branch/exit pc -> guard value
	reached []bool

	// Working data of the later phases, kept for this one analysis:
	// footprints memoized per (site, granularity) and the scratch
	// buffers every granule table reuses (table.go).
	foots    map[footKey]*footprint
	tab, tmp []gent
	ops      []rops // the replay's per-pc operand masks (replay.go)
}

// siteAcc summarizes one shared/global LD/ST/ATOM site after the
// fixpoint: the affine address and the symbol ranges that held when
// the site executes (path and guard refinements applied).
type siteAcc struct {
	pc     int
	space  isa.Space
	write  bool
	atomic bool
	size   int
	dead   bool // provably never executed
	approx bool // reached under an unrefinable condition
	addr   Expr
	ranges []ival
}

func newAnalyzer(k *gpu.Kernel, cfg *CFG, conf Config) *analyzer {
	a := &analyzer{
		prog:   cfg.Prog,
		cfg:    cfg,
		k:      k,
		conf:   conf,
		phis:   map[phiKey]symID{},
		drvs:   map[int]symID{},
		in:     make([]*state, len(cfg.Blocks)),
		visits: make([]int, len(cfg.Blocks)),
		sites:  make([]*siteAcc, len(cfg.Prog.Code)),
		brPred: map[int]predval{},
		foots:  map[footKey]*footprint{},
	}
	ws := int64(conf.WarpSize)
	bd, gd := int64(k.BlockDim), int64(k.GridDim)
	nwarps := (bd + ws - 1) / ws
	a.syms = []symInfo{
		{name: "tid", tidDep: true},
		{name: "bid", tidDep: false},
		{name: "lane", tidDep: true},
		{name: "warp", tidDep: true},
	}
	a.symMax = []ival{
		{0, bd - 1},
		{0, gd - 1},
		{0, minI64(ws, bd) - 1},
		{0, nwarps - 1},
	}
	seen := map[int64]bool{}
	add := func(v int64) {
		for _, d := range [...]int64{-1, 0, 1} {
			if t := v + d; !seen[t] {
				seen[t] = true
				a.thresholds = append(a.thresholds, t)
			}
		}
	}
	add(0)
	add(bd)
	add(gd)
	add(bd * gd)
	for i := range a.prog.Code {
		if in := &a.prog.Code[i]; in.Op == isa.OpSetp && in.UseImm {
			add(in.Imm)
		}
	}
	sort.Slice(a.thresholds, func(i, j int) bool { return a.thresholds[i] < a.thresholds[j] })
	a.symIn = make([]symInputs, len(a.syms))
	return a
}

// widenLo is the largest threshold ≤ v (or -∞); widenHi the smallest
// threshold ≥ v (or +∞).
func (a *analyzer) widenLo(v int64) int64 {
	i := sort.Search(len(a.thresholds), func(i int) bool { return a.thresholds[i] > v })
	if i == 0 {
		return negInf
	}
	return a.thresholds[i-1]
}

func (a *analyzer) widenHi(v int64) int64 {
	i := sort.Search(len(a.thresholds), func(i int) bool { return a.thresholds[i] >= v })
	if i == len(a.thresholds) {
		return posInf
	}
	return a.thresholds[i]
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func (a *analyzer) newPhi(key phiKey) symID {
	if s, ok := a.phis[key]; ok {
		return s
	}
	s := symID(len(a.syms))
	// tidDep starts optimistic and is demoted at joins whenever an
	// input is not definitely tid-dependent (greatest fixpoint, so a
	// loop-carried φ referencing itself converges).
	a.syms = append(a.syms, symInfo{name: "phi", tidDep: true})
	a.symMax = append(a.symMax, ival{posInf, negInf}) // empty until first union
	a.symIn = append(a.symIn, symInputs{})
	a.phis[key] = s
	return s
}

// newDrv mints (or reuses) the pc-keyed derived symbol for an
// operation whose result leaves the affine domain but keeps a bounded
// interval and a congruence (AND-mask, right shift, divide by a
// positive constant). The interval r is the operation's sound result
// range at this visit; the congruence is solved afterwards from the
// recorded source expressions (see solveCong). Derived symbols are
// never marked tid-dependent — the flag backs definite lints, and a
// masked value may collapse to a constant for every thread.
func (a *analyzer) newDrv(pc int, kind uint8, param int64, src Expr, r ival, st *state) Expr {
	s, ok := a.drvs[pc]
	if !ok {
		s = symID(len(a.syms))
		a.syms = append(a.syms, symInfo{name: "drv", tidDep: false})
		a.symMax = append(a.symMax, ival{posInf, negInf})
		a.symIn = append(a.symIn, symInputs{kind: kind, param: param})
		a.drvs[pc] = s
	}
	si := &a.symIn[s]
	if si.kind != kind || si.param != param {
		si.over = true // same pc, different operation parameters: give up
	} else {
		si.record(src)
	}
	a.symMax[s] = a.symMax[s].union(r)
	a.setRange(st, s, r)
	return exprSym(s)
}

// rangeOf is the interval a state assigns to sym, falling back to the
// widest range ever seen when the state predates the symbol.
func (a *analyzer) rangeOf(st *state, s symID) ival {
	if int(s) < len(st.ranges) {
		return st.ranges[s]
	}
	if int(s) < len(a.symMax) {
		return a.symMax[s]
	}
	return ival{negInf, posInf}
}

func (a *analyzer) setRange(st *state, s symID, v ival) {
	for len(st.ranges) <= int(s) {
		grow := symID(len(st.ranges))
		st.ranges = append(st.ranges, a.symMax[grow])
	}
	st.ranges[s] = v
}

// intervalOf evaluates the expression over the state's symbol ranges.
func (a *analyzer) intervalOf(e Expr, st *state) ival {
	if e.top {
		return ival{negInf, posInf}
	}
	v := ival{e.c, e.c}
	for _, t := range e.terms {
		v = ivalAdd(v, ivalScale(a.rangeOf(st, t.sym), t.coef))
	}
	return v
}

// tidDep reports whether the expression definitely varies with the
// thread id (contains a tid-dependent symbol). Top is *not* tid-dep:
// the flag backs definite findings, so unknown must stay unknown.
func (a *analyzer) tidDep(e Expr) bool {
	if e.top {
		return false
	}
	for _, t := range e.terms {
		if a.syms[t.sym].tidDep {
			return true
		}
	}
	return false
}

// entryState is the executor's launch state: registers and predicates
// are zero, symbols carry their launch-geometry ranges.
func (a *analyzer) entryState() *state {
	st := &state{ranges: append([]ival(nil), a.symMax[:symFirstPhi]...)}
	for p := range st.preds {
		st.preds[p] = predval{known: true, val: false}
	}
	return st
}

// run iterates the dataflow to a fixpoint, then makes the final pass
// that records memory-site footprints and branch-guard values.
func (a *analyzer) run() {
	work := []int{0}
	a.in[0] = a.entryState()
	inWork := make([]bool, len(a.cfg.Blocks))
	inWork[0] = true
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false
		a.visits[b]++
		st := a.in[b].clone()
		outs := a.transferBlock(b, st, nil)
		for _, o := range outs {
			if o.st == nil {
				continue
			}
			merged, changed := a.join(o.to, a.in[o.to], o.st)
			if changed {
				a.in[o.to] = merged
				if !inWork[o.to] {
					inWork[o.to] = true
					work = append(work, o.to)
				}
			}
		}
	}
	// Final pass over stable in-states: collect sites and guards.
	a.reached = make([]bool, len(a.cfg.Blocks))
	for b := range a.cfg.Blocks {
		if a.in[b] == nil {
			continue
		}
		a.reached[b] = true
		a.transferBlock(b, a.in[b].clone(), a)
	}
	// Solve symbol congruences from the inputs recorded across both the
	// fixpoint and the final pass (the final pass can record source
	// expressions the last worklist visit had not seen yet).
	a.solveCong()
}

type edgeOut struct {
	to int
	st *state
}

// transferBlock interprets one basic block from its in-state and
// returns the per-edge out-states. When collect is non-nil this is the
// final pass: memory sites and branch guards are recorded.
func (a *analyzer) transferBlock(b int, st *state, collect *analyzer) []edgeOut {
	blk := a.cfg.Blocks[b]
	for pc := blk.Start; pc < blk.End; pc++ {
		in := &a.prog.Code[pc]
		if pc == blk.End-1 && (in.Op == isa.OpBra || in.Op == isa.OpExit) {
			return a.transferTerminator(b, pc, in, st, collect)
		}
		a.transferInstr(pc, in, st, collect)
	}
	// Plain fall-through.
	outs := make([]edgeOut, 0, 1)
	for _, s := range blk.Succs {
		outs = append(outs, edgeOut{to: s, st: st})
	}
	return outs
}

// transferTerminator handles the block-ending branch or exit,
// producing refined edge states.
func (a *analyzer) transferTerminator(b, pc int, in *isa.Instr, st *state, collect *analyzer) []edgeOut {
	blk := a.cfg.Blocks[b]
	n := len(a.prog.Code)
	if in.Pred == isa.NoPred {
		if in.Op == isa.OpExit {
			return nil
		}
		// Unconditional branch.
		return []edgeOut{{to: a.cfg.BlockOf(in.Tgt), st: st}}
	}
	g := st.preds[in.Pred]
	if collect != nil {
		collect.brPred[pc] = g
	}
	tv := !in.PredNeg // predicate value for which the guard passes
	takenSt := a.assume(st, in.Pred, g, tv)
	fallSt := a.assume(st, in.Pred, g, !tv)
	var outs []edgeOut
	if in.Op == isa.OpExit {
		// Guard-true lanes retire; guard-false lanes fall through.
		if fallSt != nil && blk.End < n {
			outs = append(outs, edgeOut{to: a.cfg.BlockOf(blk.End), st: fallSt})
		}
		return outs
	}
	if takenSt != nil {
		outs = append(outs, edgeOut{to: a.cfg.BlockOf(in.Tgt), st: takenSt})
	}
	if fallSt != nil && blk.End < n {
		outs = append(outs, edgeOut{to: a.cfg.BlockOf(blk.End), st: fallSt})
	}
	return outs
}

// assume returns a copy of st in which predicate p holds value pv, or
// nil when that is provably impossible. Single-symbol affine
// conditions with bounded intervals refine the symbol's range; any
// weaker condition leaves ranges alone and marks the state approx.
func (a *analyzer) assume(st *state, p isa.Pred, g predval, pv bool) *state {
	if g.known {
		if g.val != pv {
			return nil
		}
		return st.clone()
	}
	c := st.clone()
	c.preds[p].known = true
	c.preds[p].val = pv
	if !g.hasCond {
		c.approx = true
		return c
	}
	cmp := g.cmp
	if !pv {
		cmp = negateCmp(cmp)
	}
	sym, k, cst, single := g.diff.singleTerm()
	if !single || !a.intervalOf(g.diff, st).bounded() {
		// Constant diffs were already folded to known by SETP; anything
		// multi-symbol or possibly-wrapping is left unrefined.
		c.approx = true
		return c
	}
	r, feasible := refineRange(a.rangeOf(c, sym), k, cst, cmp)
	if !feasible {
		return nil
	}
	a.setRange(c, sym, r)
	return c
}

func negateCmp(c isa.CmpOp) isa.CmpOp {
	switch c {
	case isa.CmpEQ:
		return isa.CmpNE
	case isa.CmpNE:
		return isa.CmpEQ
	case isa.CmpLT:
		return isa.CmpGE
	case isa.CmpLE:
		return isa.CmpGT
	case isa.CmpGT:
		return isa.CmpLE
	case isa.CmpGE:
		return isa.CmpLT
	}
	return c
}

// floorDiv is floor division for b > 0.
func floorDiv(m, b int64) int64 {
	q := m / b
	if m%b != 0 && m < 0 {
		q--
	}
	return q
}

// refineRange intersects r with the solution set of k·s + c cmp 0.
// Returns feasible=false when the intersection is empty. k must be
// nonzero; bounds are exact (no wrap: the caller checked the interval
// is bounded).
func refineRange(r ival, k, c int64, cmp isa.CmpOp) (ival, bool) {
	m := -c // k·s cmp m
	if k < 0 {
		k, m = -k, -m
		switch cmp {
		case isa.CmpLT:
			cmp = isa.CmpGT
		case isa.CmpLE:
			cmp = isa.CmpGE
		case isa.CmpGT:
			cmp = isa.CmpLT
		case isa.CmpGE:
			cmp = isa.CmpLE
		}
	}
	switch cmp {
	case isa.CmpLT: // k·s < m  ⇔  s ≤ floor((m-1)/k)
		r = r.intersect(ival{negInf, floorDiv(m-1, k)})
	case isa.CmpLE:
		r = r.intersect(ival{negInf, floorDiv(m, k)})
	case isa.CmpGT: // k·s > m  ⇔  s ≥ floor(m/k)+1
		r = r.intersect(ival{floorDiv(m, k) + 1, posInf})
	case isa.CmpGE: // k·s ≥ m  ⇔  s ≥ ceil(m/k)
		r = r.intersect(ival{floorDiv(m+k-1, k), posInf})
	case isa.CmpEQ:
		if m%k != 0 {
			return r, false
		}
		r = r.intersect(ival{m / k, m / k})
	case isa.CmpNE:
		if m%k == 0 {
			x := m / k
			if r.lo == x && r.hi == x {
				return r, false
			}
			if r.lo == x {
				r.lo++
			}
			if r.hi == x {
				r.hi--
			}
		}
	}
	return r, !r.empty()
}

// transferInstr applies one non-terminator instruction to the state.
// During the final pass (collect != nil) it also snapshots memory
// sites.
func (a *analyzer) transferInstr(pc int, in *isa.Instr, st *state, collect *analyzer) {
	// Guard handling: a known-false guard skips the instruction, a
	// known-true guard executes it normally, an unknown guard makes
	// every write a weak update.
	weak := false
	guardSt := st
	if in.Pred != isa.NoPred {
		g := st.preds[in.Pred]
		pv := !in.PredNeg
		if g.known {
			if g.val != pv {
				if collect != nil && in.IsMem() && (in.Space == isa.SpaceShared || in.Space == isa.SpaceGlobal) {
					collect.sites[pc] = &siteAcc{pc: pc, space: in.Space, dead: true}
				}
				return
			}
		} else {
			weak = true
			if collect != nil && in.IsMem() {
				// Site footprints see the guard as a path condition.
				if r := a.assume(st, in.Pred, g, pv); r != nil {
					guardSt = r
				} else {
					guardSt = nil
				}
			}
		}
	}
	if collect != nil && in.IsMem() && (in.Space == isa.SpaceShared || in.Space == isa.SpaceGlobal) {
		if guardSt == nil {
			collect.sites[pc] = &siteAcc{pc: pc, space: in.Space, dead: true}
		} else {
			s := &siteAcc{
				pc:     pc,
				space:  in.Space,
				write:  in.Op == isa.OpSt,
				atomic: in.Op == isa.OpAtom,
				size:   int(in.Size),
				approx: guardSt.approx,
				addr:   guardSt.regs[in.SrcA].addConst(in.Imm),
				ranges: append([]ival(nil), guardSt.ranges...),
			}
			collect.sites[pc] = s
		}
	}

	setReg := func(r isa.Reg, v Expr) {
		if weak {
			if !st.regs[r].equal(v) {
				st.regs[r] = exprTop()
			}
		} else if !st.regs[r].equal(v) {
			st.regs[r] = v
		} else {
			return // value unchanged: live conditions stay valid
		}
		for p := range st.preds {
			pd := &st.preds[p]
			if pd.live && (pd.srcA == r || (!pd.useImm && pd.srcB == r)) {
				pd.live = false
			}
		}
	}
	setPred := func(p isa.Pred, v predval) {
		if weak {
			if !st.preds[p].equal(v) {
				st.preds[p] = predval{}
			}
			return
		}
		st.preds[p] = v
	}
	src := func(r isa.Reg) Expr { return st.regs[r] }
	bval := func() Expr {
		if in.UseImm {
			return exprConst(in.Imm)
		}
		return src(in.SrcB)
	}

	switch in.Op {
	case isa.OpNop, isa.OpBar, isa.OpMembar, isa.OpAcqMark, isa.OpRelMark:
		// No register effects.
	case isa.OpMov:
		if in.UseImm {
			setReg(in.Dst, exprConst(in.Imm))
		} else {
			setReg(in.Dst, src(in.SrcA))
		}
	case isa.OpSreg:
		setReg(in.Dst, a.sregExpr(isa.SregKind(in.Imm)))
	case isa.OpSelp:
		pd := st.preds[in.PD]
		av, cv := src(in.SrcA), src(in.SrcC)
		switch {
		case pd.known && pd.val:
			setReg(in.Dst, av)
		case pd.known:
			setReg(in.Dst, cv)
		case av.equal(cv):
			setReg(in.Dst, av)
		default:
			setReg(in.Dst, exprTop())
		}
	case isa.OpAdd:
		setReg(in.Dst, src(in.SrcA).add(bval()))
	case isa.OpSub:
		setReg(in.Dst, src(in.SrcA).sub(bval()))
	case isa.OpMul:
		setReg(in.Dst, mulExpr(src(in.SrcA), bval()))
	case isa.OpMad:
		setReg(in.Dst, mulExpr(src(in.SrcA), bval()).add(src(in.SrcC)))
	case isa.OpDiv:
		av, aok := src(in.SrcA).Const()
		dv, dok := bval().Const()
		switch {
		case dok && dv == 0:
			setReg(in.Dst, exprConst(0)) // executor defines x/0 = 0
		case aok && dok && !(av == negInf && dv == -1):
			setReg(in.Dst, exprConst(av/dv))
		default:
			v := exprTop()
			if dok && dv > 0 {
				// Signed division of a non-negative value by a positive
				// constant is monotone, so the interval maps through.
				if iv := a.intervalOf(src(in.SrcA), st); iv.bounded() && iv.lo >= 0 {
					v = a.newDrv(pc, drvDiv, dv, src(in.SrcA), ival{iv.lo / dv, iv.hi / dv}, st)
				}
			}
			setReg(in.Dst, v)
		}
	case isa.OpRem:
		av, aok := src(in.SrcA).Const()
		dv, dok := bval().Const()
		switch {
		case dok && dv == 0:
			setReg(in.Dst, exprConst(0)) // executor defines x%0 = 0
		case aok && dok && dv != -1:
			setReg(in.Dst, exprConst(av%dv))
		case dok && dv == -1:
			setReg(in.Dst, exprConst(0))
		default:
			setReg(in.Dst, exprTop())
		}
	case isa.OpMin, isa.OpMax:
		av, aok := src(in.SrcA).Const()
		bv, bok := bval().Const()
		switch {
		case aok && bok && in.Op == isa.OpMin:
			setReg(in.Dst, exprConst(minI64(av, bv)))
		case aok && bok:
			setReg(in.Dst, exprConst(maxI64(av, bv)))
		case src(in.SrcA).equal(bval()):
			setReg(in.Dst, src(in.SrcA))
		default:
			setReg(in.Dst, exprTop())
		}
	case isa.OpAnd:
		e := a.andExpr(src(in.SrcA), bval(), st)
		if e.top {
			// Non-identity mask: the result leaves the affine domain but
			// stays in [0, mask] with the mask's congruence.
			xe, ye := src(in.SrcA), bval()
			if m, ok := ye.Const(); ok && m >= 0 {
				e = a.newDrv(pc, drvAnd, m, xe, ival{0, m}, st)
			} else if m, ok := xe.Const(); ok && m >= 0 {
				e = a.newDrv(pc, drvAnd, m, ye, ival{0, m}, st)
			}
		}
		setReg(in.Dst, e)
	case isa.OpOr, isa.OpXor:
		av, aok := src(in.SrcA).Const()
		bv, bok := bval().Const()
		switch {
		case aok && bok && in.Op == isa.OpOr:
			setReg(in.Dst, exprConst(av|bv))
		case aok && bok:
			setReg(in.Dst, exprConst(av^bv))
		case bok && bv == 0:
			setReg(in.Dst, src(in.SrcA))
		case aok && av == 0:
			setReg(in.Dst, bval())
		default:
			setReg(in.Dst, exprTop())
		}
	case isa.OpNot:
		if av, ok := src(in.SrcA).Const(); ok {
			setReg(in.Dst, exprConst(^av))
		} else {
			setReg(in.Dst, exprTop())
		}
	case isa.OpShl:
		bv, bok := bval().Const()
		av, aok := src(in.SrcA).Const()
		switch {
		case aok && bok:
			setReg(in.Dst, exprConst(int64(uint64(av)<<(uint64(bv)&63))))
		case bok:
			sh := uint64(bv) & 63
			if sh <= 62 {
				setReg(in.Dst, src(in.SrcA).scale(int64(1)<<sh))
			} else {
				setReg(in.Dst, exprTop())
			}
		default:
			setReg(in.Dst, exprTop())
		}
	case isa.OpShr:
		av, aok := src(in.SrcA).Const()
		bv, bok := bval().Const()
		switch {
		case aok && bok:
			setReg(in.Dst, exprConst(av>>(uint64(bv)&63)))
		case bok:
			v := exprTop()
			sh := uint64(bv) & 63
			// A provably non-negative source makes the executor's
			// arithmetic shift agree with the logical one, so the result
			// range and congruence are exact images of the source.
			if iv := a.intervalOf(src(in.SrcA), st); iv.bounded() && iv.lo >= 0 {
				v = a.newDrv(pc, drvShr, int64(sh), src(in.SrcA), ival{iv.lo >> sh, iv.hi >> sh}, st)
			}
			setReg(in.Dst, v)
		default:
			setReg(in.Dst, exprTop())
		}
	case isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv, isa.OpFMin,
		isa.OpFMax, isa.OpFSqrt, isa.OpFExp, isa.OpFLog, isa.OpFSin,
		isa.OpFCos, isa.OpFAbs, isa.OpItoF, isa.OpFtoI:
		setReg(in.Dst, exprTop())
	case isa.OpSetp:
		diff := src(in.SrcA).sub(bval())
		pv := predval{}
		if !diff.top {
			pv.hasCond = true
			pv.diff = diff
			pv.cmp = in.Cmp
			pv.live = true
			pv.srcA, pv.srcB = in.SrcA, in.SrcB
			pv.useImm, pv.imm = in.UseImm, in.Imm
			iv := a.intervalOf(diff, st)
			if iv.bounded() {
				switch condEval(iv, in.Cmp) {
				case +1:
					pv.known, pv.val = true, true
				case -1:
					pv.known, pv.val = true, false
				}
			}
		}
		setPred(in.PD, pv)
	case isa.OpFSetp:
		setPred(in.PD, predval{})
	case isa.OpLd:
		v := exprTop()
		if in.Space == isa.SpaceParam {
			if c, ok := src(in.SrcA).addConst(in.Imm).Const(); ok {
				idx := int(uint64(c) / 8)
				if idx >= 0 && idx < len(a.k.Params) {
					v = exprConst(int64(a.k.Params[idx]))
				}
			}
		}
		setReg(in.Dst, v)
	case isa.OpSt:
		// No register effects.
	case isa.OpAtom:
		setReg(in.Dst, exprTop())
	default:
		if in.Dst < isa.NumRegs {
			setReg(in.Dst, exprTop())
		}
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// condEval decides a comparison against 0 over a bounded interval:
// +1 all values satisfy it, -1 none do, 0 mixed.
func condEval(iv ival, cmp isa.CmpOp) int {
	all, none := false, false
	switch cmp {
	case isa.CmpEQ:
		all = iv.lo == 0 && iv.hi == 0
		none = iv.hi < 0 || iv.lo > 0
	case isa.CmpNE:
		all = iv.hi < 0 || iv.lo > 0
		none = iv.lo == 0 && iv.hi == 0
	case isa.CmpLT:
		all = iv.hi < 0
		none = iv.lo >= 0
	case isa.CmpLE:
		all = iv.hi <= 0
		none = iv.lo > 0
	case isa.CmpGT:
		all = iv.lo > 0
		none = iv.hi <= 0
	case isa.CmpGE:
		all = iv.lo >= 0
		none = iv.hi < 0
	}
	if all {
		return +1
	}
	if none {
		return -1
	}
	return 0
}

func (a *analyzer) sregExpr(k isa.SregKind) Expr {
	switch k {
	case isa.SregTid:
		return exprSym(SymTid)
	case isa.SregNtid:
		return exprConst(int64(a.k.BlockDim))
	case isa.SregCtaid:
		return exprSym(SymBid)
	case isa.SregNctaid:
		return exprConst(int64(a.k.GridDim))
	case isa.SregLane:
		return exprSym(SymLane)
	case isa.SregWarp:
		return exprSym(SymWarp)
	case isa.SregGtid:
		return exprSym(SymBid).scale(int64(a.k.BlockDim)).add(exprSym(SymTid))
	}
	return exprTop()
}

// mulExpr multiplies two abstract values; one side must be constant
// for the result to stay affine. Constant×constant folds with the
// executor's wrapping semantics.
func mulExpr(x, y Expr) Expr {
	xc, xok := x.Const()
	yc, yok := y.Const()
	switch {
	case xok && yok:
		return exprConst(xc * yc) // wraps exactly like the executor
	case xok:
		return y.scale(xc)
	case yok:
		return x.scale(yc)
	}
	return exprTop()
}

// andExpr folds x & mask: with a low-bit mask and a value provably in
// [0, mask], the AND is the identity.
func (a *analyzer) andExpr(x, y Expr, st *state) Expr {
	xc, xok := x.Const()
	yc, yok := y.Const()
	if xok && yok {
		return exprConst(xc & yc)
	}
	ident := func(v Expr, m int64) (Expr, bool) {
		if m >= 0 && m+1 > 0 && (m+1)&m == 0 { // m = 2^k - 1
			iv := a.intervalOf(v, st)
			if iv.bounded() && iv.lo >= 0 && iv.hi <= m {
				return v, true
			}
		}
		return Expr{}, false
	}
	if yok {
		if e, ok := ident(x, yc); ok {
			return e
		}
	}
	if xok {
		if e, ok := ident(y, xc); ok {
			return e
		}
	}
	return exprTop()
}

// join merges an incoming edge state into a block's in-state.
// Divergent registers become φ-symbols keyed by (block, register), so
// loop-carried values converge to a single symbol whose range is
// widened when it keeps growing.
func (a *analyzer) join(block int, old, edge *state) (*state, bool) {
	if old == nil {
		return edge.clone(), true
	}
	visits := a.visits[block]
	merged := old.clone()
	changed := false
	for r := 0; r < isa.NumRegs; r++ {
		oe, ne := old.regs[r], edge.regs[r]
		if oe.equal(ne) {
			continue
		}
		if oe.top || ne.top || visits > hardCap {
			if !merged.regs[r].top {
				merged.regs[r] = exprTop()
				changed = true
			}
			continue
		}
		sym := a.newPhi(phiKey{block: block, reg: r})
		a.symIn[sym].record(oe)
		a.symIn[sym].record(ne)
		u := a.intervalOf(oe, old).union(a.intervalOf(ne, edge))
		// The φ takes its inputs' union; widen a still-growing range.
		cur := a.rangeOf(merged, sym)
		if oe.equal(exprSym(sym)) {
			// Loop-carried: old already is the φ; union in the new edge.
			u = cur.union(u)
		}
		if visits > widenAfter {
			if u.lo < cur.lo {
				u.lo = a.widenLo(u.lo)
			}
			if u.hi > cur.hi && !cur.empty() {
				u.hi = a.widenHi(u.hi)
			}
		}
		a.symMax[sym] = a.symMax[sym].union(u)
		// Definitely tid-dependent only when every input is (a
		// self-reference counts as its current flag via a.tidDep).
		if !a.tidDep(oe) || !a.tidDep(ne) {
			a.syms[sym].tidDep = false
		}
		phe := exprSym(sym)
		if !merged.regs[r].equal(phe) {
			merged.regs[r] = phe
			changed = true
		}
		// Compare against the range the state actually saw (cur), not a
		// fresh rangeOf read: the symMax union above already absorbed u
		// into the fallback, so re-reading would mask the growth and the
		// fixpoint would converge before loop counters reach their exit
		// bound (leaving post-loop blocks unreached — unsound).
		if cur != u {
			a.setRange(merged, sym, u)
			changed = true
		}
	}
	for p := 0; p < isa.NumPreds; p++ {
		op, np := old.preds[p], edge.preds[p]
		if op.equal(np) {
			continue
		}
		j := predval{}
		if op.known && np.known && op.val == np.val {
			j = predval{known: true, val: op.val}
		}
		// Same still-live SETP on both edges: re-derive the condition
		// over the merged registers (loop counters become their φ here,
		// which is what lets assume() bound the φ from the loop guard).
		if op.sameSource(np) {
			rhs := exprConst(op.imm)
			if !op.useImm {
				rhs = merged.regs[op.srcB]
			}
			if diff := merged.regs[op.srcA].sub(rhs); !diff.top {
				j.hasCond = true
				j.diff = diff
				j.cmp = op.cmp
				j.live = true
				j.srcA, j.srcB = op.srcA, op.srcB
				j.useImm, j.imm = op.useImm, op.imm
				if !j.known {
					if iv := a.intervalOf(diff, merged); iv.bounded() {
						switch condEval(iv, op.cmp) {
						case +1:
							j.known, j.val = true, true
						case -1:
							j.known, j.val = true, false
						}
					}
				}
			}
		}
		if !merged.preds[p].equal(j) {
			merged.preds[p] = j
			changed = true
		}
	}
	// Symbol ranges: pointwise union (φ ranges were handled above, but
	// re-union is harmless and covers φs minted at other blocks).
	for s := 0; s < len(edge.ranges); s++ {
		u := a.rangeOf(merged, symID(s)).union(edge.ranges[s])
		if visits > widenAfter {
			cur := a.rangeOf(old, symID(s))
			if u.lo < cur.lo {
				u.lo = a.widenLo(u.lo)
			}
			if u.hi > cur.hi && !cur.empty() {
				u.hi = a.widenHi(u.hi)
			}
		}
		if a.rangeOf(merged, symID(s)) != u {
			a.setRange(merged, symID(s), u)
			changed = true
		}
		if int(s) < len(a.symMax) {
			a.symMax[s] = a.symMax[s].union(u)
		}
	}
	if edge.approx && !merged.approx {
		merged.approx = true
		changed = true
	}
	return merged, changed
}
