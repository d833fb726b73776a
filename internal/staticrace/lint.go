package staticrace

import (
	"fmt"

	"haccrg/internal/isa"
)

// Lint pass names.
const (
	PassBarrierDivergence = "barrier-divergence"
	PassUninitRead        = "uninit-read"
	PassSharedOOB         = "shared-oob"
	PassFenceMisuse       = "fence-misuse"
)

// lintBarrierDivergence flags BAR instructions inside the divergent
// region of a predicated branch whose condition is definitely
// tid-dependent with both outcomes possible: some threads of a block
// then reach the barrier while others bypass it, which the block-wide
// barrier semantics turn into a deadlock or miscount. Only definite
// conditions fire — an unknown guard stays silent.
func (a *analyzer) lintBarrierDivergence() []Finding {
	var out []Finding
	for pc := range a.prog.Code {
		in := &a.prog.Code[pc]
		if in.Op != isa.OpBra || in.Pred == isa.NoPred {
			continue
		}
		if g, ok := a.brPred[pc]; !ok || !a.divergentGuard(g, pc) {
			continue
		}
		lo, hi := pc+1, in.Rcv
		if in.Tgt < lo {
			lo = in.Tgt
		}
		for q := lo; q < hi && q < len(a.prog.Code); q++ {
			if a.prog.Code[q].Op != isa.OpBar {
				continue
			}
			b := a.cfg.BlockOf(q)
			if b < 0 || a.reached == nil || b >= len(a.reached) || !a.reached[b] {
				continue
			}
			out = append(out, Finding{
				Pass:    PassBarrierDivergence,
				PC:      q,
				Related: []int{pc},
				Msg: fmt.Sprintf("barrier executes under tid-dependent predicate p%d "+
					"(branch at pc %d); threads that skip the region never arrive", in.Pred, pc),
			})
		}
	}
	return out
}

// divergentGuard reports whether a recorded branch guard is definitely
// tid-dependent with both outcomes possible among the launched
// threads (interval of the SETP difference straddles the comparison).
func (a *analyzer) divergentGuard(g predval, pc int) bool {
	if g.known || !g.hasCond || !a.tidDep(g.diff) {
		return false
	}
	b := a.cfg.BlockOf(pc)
	if b < 0 || a.in[b] == nil {
		return false
	}
	iv := a.intervalOf(g.diff, a.in[b])
	return iv.bounded() && condEval(iv, g.cmp) == 0
}

// lintUninit flags reads of general or predicate registers that are
// assigned on *no* path from entry (a may-assigned forward dataflow).
// Register r0 is exempt: the builder's Ldp idiom deliberately reads it
// as a conventional zero register.
func (a *analyzer) lintUninit() []Finding {
	type mask struct {
		regs  uint32
		preds uint8
	}
	n := len(a.cfg.Blocks)
	in := make([]mask, n)
	have := make([]bool, n)
	have[0] = true
	apply := func(m mask, b int) mask {
		blk := a.cfg.Blocks[b]
		for pc := blk.Start; pc < blk.End; pc++ {
			ins := &a.prog.Code[pc]
			dr, dp := ins.Writes()
			if dr >= 0 {
				m.regs |= 1 << uint(dr)
			}
			if dp >= 0 {
				m.preds |= 1 << uint(dp)
			}
		}
		return m
	}
	for changed := true; changed; {
		changed = false
		for b := 0; b < n; b++ {
			if !have[b] {
				continue
			}
			out := apply(in[b], b)
			for _, s := range a.cfg.Blocks[b].Succs {
				nm := out
				if have[s] {
					nm.regs |= in[s].regs
					nm.preds |= in[s].preds
				}
				if !have[s] || nm != in[s] {
					in[s] = nm
					have[s] = true
					changed = true
				}
			}
		}
	}
	var out []Finding
	seen := map[[2]int]bool{} // (pc, operand) dedup
	var regs []isa.Reg
	var preds []isa.Pred
	for b := 0; b < n; b++ {
		if !have[b] {
			continue
		}
		m := in[b]
		blk := a.cfg.Blocks[b]
		for pc := blk.Start; pc < blk.End; pc++ {
			ins := &a.prog.Code[pc]
			regs, preds = ins.Reads(regs[:0], preds[:0])
			for _, r := range regs {
				if r == 0 || m.regs&(1<<uint(r)) != 0 || seen[[2]int{pc, int(r)}] {
					continue
				}
				seen[[2]int{pc, int(r)}] = true
				out = append(out, Finding{
					Pass: PassUninitRead, PC: pc,
					Msg: fmt.Sprintf("r%d is read but assigned on no path from entry", r),
				})
			}
			for _, p := range preds {
				key := [2]int{pc, 100 + int(p)}
				if m.preds&(1<<uint(p)) != 0 || seen[key] {
					continue
				}
				seen[key] = true
				out = append(out, Finding{
					Pass: PassUninitRead, PC: pc,
					Msg: fmt.Sprintf("p%d is read but assigned on no path from entry", p),
				})
			}
			dr, dp := ins.Writes()
			if dr >= 0 {
				m.regs |= 1 << uint(dr)
			}
			if dp >= 0 {
				m.preds |= 1 << uint(dp)
			}
		}
	}
	return out
}

// lintSharedOOB flags shared-memory sites whose address interval
// provably escapes [0, SharedBytes). It only fires from states with no
// unrefinable path condition (approx) — the claim is "some launched
// thread accesses out of bounds", which a runtime launch would turn
// into a hard failure.
func (a *analyzer) lintSharedOOB() []Finding {
	var out []Finding
	limit := int64(a.k.SharedBytes)
	for _, s := range a.sites {
		if s == nil || s.space != isa.SpaceShared || s.dead || s.approx || s.addr.top {
			continue
		}
		st := &state{ranges: s.ranges}
		iv := a.intervalOf(s.addr, st)
		if !iv.bounded() {
			continue
		}
		if iv.lo < 0 || iv.hi+int64(s.size) > limit {
			out = append(out, Finding{
				Pass: PassSharedOOB, PC: s.pc,
				Msg: fmt.Sprintf("shared access reaches [%d, %d) but the kernel declares %d shared bytes",
					iv.lo, iv.hi+int64(s.size), limit),
			})
		}
	}
	return out
}

// lintFenceMisuse detects the unfenced election idiom: a global store,
// an AtomInc election whose result guards an "I am last" region, and a
// global load in that region overlapping the store's footprint across
// threads — with no MEMBAR on some path from the store to the atomic.
// Without the fence the elected thread can observe partial updates
// (the defect the paper's fence-ID validation catches dynamically).
func (a *analyzer) lintFenceMisuse() []Finding {
	var out []Finding
	for _, atom := range a.sites {
		if atom == nil || atom.dead || atom.space != isa.SpaceGlobal {
			continue
		}
		in := &a.prog.Code[atom.pc]
		if in.Op != isa.OpAtom || in.AOp != isa.AtomInc {
			continue
		}
		_, region := a.electRegion(atom.pc, in.Dst)
		if region.empty() {
			continue
		}
		for _, ld := range a.sites {
			if ld == nil || ld.dead || ld.space != isa.SpaceGlobal || ld.write || ld.atomic {
				continue
			}
			if int64(ld.pc) < region.lo || int64(ld.pc) > region.hi {
				continue
			}
			ldOwn, ok := a.owners(ld)
			if !ok {
				continue
			}
			for _, st := range a.sites {
				if st == nil || st.dead || !st.write || st.space != isa.SpaceGlobal || st.pc >= atom.pc {
					continue
				}
				stOwn, ok := a.owners(st)
				if !ok || !crossThreadOverlap(stOwn, ldOwn) {
					continue
				}
				if !a.fenceFreePath(st.pc, atom.pc) {
					continue
				}
				out = append(out, Finding{
					Pass: PassFenceMisuse, PC: st.pc,
					Related: []int{atom.pc, ld.pc},
					Msg: fmt.Sprintf("global store is read back at pc %d by the thread elected at pc %d, "+
						"but no MEMBAR orders the store before the election", ld.pc, atom.pc),
				})
			}
		}
	}
	return out
}

// electRegion resolves atomDst → SETP → predicated branch and returns
// the branch pc plus the guarded region [min(pc+1,Tgt), Rcv).
func (a *analyzer) electRegion(atomPC int, dst isa.Reg) (int, ival) {
	none := ival{1, 0}
	blk := a.cfg.Blocks[a.cfg.BlockOf(atomPC)]
	for pc := atomPC + 1; pc < blk.End; pc++ {
		in := &a.prog.Code[pc]
		if in.Op == isa.OpSetp && (in.SrcA == dst || (!in.UseImm && in.SrcB == dst)) {
			pd := in.PD
			// The guarded branch follows; stop if the predicate or the
			// atomic's result is redefined first.
			for q := pc + 1; q < len(a.prog.Code); q++ {
				br := &a.prog.Code[q]
				if br.Op == isa.OpBra && br.Pred == pd {
					lo := int64(q + 1)
					if int64(br.Tgt) < lo {
						lo = int64(br.Tgt)
					}
					return q, ival{lo, int64(br.Rcv) - 1}
				}
				r, p := br.Writes()
				if p == int(pd) || r == int(dst) {
					break
				}
			}
		}
		if r, _ := in.Writes(); r == int(dst) {
			break
		}
	}
	return -1, none
}

// gown is one granule of a site's footprint with its accessing thread,
// or -2 when several threads access it.
type gown struct {
	g     uint64
	owner int64
}

// owners returns a global site's footprint as an owner table sorted by
// granule, memoized with the footprint; ok=false when the footprint is
// unknown.
func (a *analyzer) owners(s *siteAcc) ([]gown, bool) {
	f := a.footprint(s, a.conf.GlobalGranularity)
	if !f.ok {
		return nil, false
	}
	if f.own == nil && len(f.pts) > 0 {
		t := a.table(len(f.pts) / 2)
		for i := 0; i < len(f.pts); i += 2 {
			t = append(t, gent{key: f.pts[i], who: f.pts[i+1]})
		}
		t = a.sortTable(t)
		n := 0
		for lo := 0; lo < len(t); lo = keyRun(t, lo) {
			n++
		}
		f.own = make([]gown, 0, n)
		for lo := 0; lo < len(t); {
			hi := keyRun(t, lo)
			o := gown{g: t[lo].key, owner: int64(t[lo].who)}
			for _, e := range t[lo+1 : hi] {
				if int64(e.who) != o.owner {
					o.owner = -2
					break
				}
			}
			f.own = append(f.own, o)
			lo = hi
		}
	}
	return f.own, true
}

// crossThreadOverlap reports whether some granule is written and read
// by two distinct threads: a merge of the two sorted owner tables.
func crossThreadOverlap(writers, readers []gown) bool {
	for i, j := 0, 0; i < len(writers) && j < len(readers); {
		w, r := writers[i], readers[j]
		switch {
		case w.g < r.g:
			i++
		case w.g > r.g:
			j++
		default:
			if w.owner == -2 || r.owner == -2 || w.owner != r.owner {
				return true
			}
			i++
			j++
		}
	}
	return false
}

// fenceFreePath reports whether execution can flow from the store at
// pc `from` to the atomic at pc `to` without crossing a MEMBAR.
func (a *analyzer) fenceFreePath(from, to int) bool {
	type pos struct{ pc int }
	seen := make([]bool, len(a.prog.Code))
	stack := []pos{{from + 1}}
	for len(stack) > 0 {
		p := stack[len(stack)-1].pc
		stack = stack[:len(stack)-1]
		for pc := p; pc >= 0 && pc < len(a.prog.Code); {
			if seen[pc] {
				break
			}
			seen[pc] = true
			if pc == to {
				return true
			}
			in := &a.prog.Code[pc]
			if in.Op == isa.OpMembar {
				break // fenced along this path
			}
			if in.Op == isa.OpBra {
				if !seen[in.Tgt] {
					stack = append(stack, pos{in.Tgt})
				}
				if in.Pred == isa.NoPred {
					break
				}
				pc++ // fall-through for guard-false lanes
				continue
			}
			if in.Op == isa.OpExit && in.Pred == isa.NoPred {
				break
			}
			pc++
		}
	}
	return false
}
