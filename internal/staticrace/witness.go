package staticrace

import (
	"cmp"
	"fmt"
	"slices"

	"haccrg/internal/isa"
)

// WitnessSchema versions the witness report format for downstream
// parsers.
const WitnessSchema = "haccrg-witness/1"

// Witness kinds.
const (
	WitnessRace       = "race"
	WitnessDivergence = "divergence"
	WitnessOOB        = "oob"
	WitnessFence      = "fence"
)

// Race witness classes.
const (
	ClassCrossBlockWAW = "cross-block-waw"
	ClassSameBlockWAW  = "same-block-waw"
	ClassSharedEpoch   = "shared-epoch"
)

// Witness is one machine-checked proof of a defect: a concrete pair of
// threads, an instruction pair, and (for races) an overlapping
// granule. No witness ships unverified — the checker re-derives every
// claim independently and unverifiable witnesses are dropped and
// counted.
type Witness struct {
	Kind     string `json:"kind"` // race | divergence | oob | fence
	Kernel   string `json:"kernel"`
	Class    string `json:"class,omitempty"` // race witnesses: guarantee argument used
	Space    string `json:"space,omitempty"`
	PC       int    `json:"pc"`
	PC2      int    `json:"pc2,omitempty"`
	Granule  uint64 `json:"granule,omitempty"` // runtime granule index (shared: window-relative)
	Addr     uint64 `json:"addr,omitempty"`
	Addr2    uint64 `json:"addr2,omitempty"`
	Block    int    `json:"block"`
	Tid      int    `json:"tid"`
	Block2   int    `json:"block2,omitempty"`
	Tid2     int    `json:"tid2,omitempty"`
	Method   string `json:"method"` // replay | expr
	Verified bool   `json:"verified"`
	Detail   string `json:"detail,omitempty"`
}

// witnessCap bounds the witnesses emitted per kernel; drops are
// counted in Analysis.WitnessDropped.
const witnessCap = 64

// gacc is one replayed access attributed to its thread, the working
// unit of the quiet-granule rules and the race-witness search.
type gacc struct {
	bid, tid int
	pc       int
	bar      int
	addr     uint64
	write    bool
	atomic   bool
}

// granuleKey qualifies a granule index by its block for shared space
// (each block has its own window and its own shadow) and leaves global
// granules unqualified.
func granuleKey(space isa.Space, bid int, g uint64) uint64 {
	if space == isa.SpaceShared {
		return uint64(bid)<<32 | (g & 0xFFFFFFFF)
	}
	return g
}

// granuleTable lays out every replayed access of one space as one row
// per granule it straddles — (granule key, thread index, access index)
// — and sorts the rows by key. Rows are generated thread by thread in
// execution order and the sort is stable, so each granule's rows come
// out grouped by thread, threads in (block, tid) order.
func (a *analyzer) granuleTable(rr *replayResult, space isa.Space, gran int) []gent {
	shared := space == isa.SpaceShared
	g := uint64(gran)
	n := 0
	for ti := range rr.threads {
		for _, ac := range rr.threads[ti].acc {
			g0, g1 := ac.addr/g, (ac.addr+uint64(ac.size)-1)/g
			if ac.shared() == shared && g1 >= g0 { // an end wrapping past 2^64 touches nothing
				n += int(g1-g0) + 1
			}
		}
	}
	t := a.table(n)
	for ti := range rr.threads {
		th := &rr.threads[ti]
		for i, ac := range th.acc {
			if ac.shared() != shared {
				continue
			}
			for gi := ac.addr / g; gi <= (ac.addr+uint64(ac.size)-1)/g; gi++ {
				t = append(t, gent{key: granuleKey(space, th.bid, gi), who: uint64(ti), idx: uint32(i)})
			}
		}
	}
	return a.sortTable(t)
}

// ruleScratch holds the buffers the per-granule rules reuse from one
// granule to the next.
type ruleScratch struct {
	accs []gacc // the current granule's accesses
	sel  []gacc // the subset a rule works on (plain accesses, plain writes)
	ep   []gacc // sel regrouped by barrier epoch
	ends []int  // epoch ends into ep (the epoch split's counters)
	dup  []wrec // the injectivity check's writes
}

// wrec is one plain write of the intra-warp injectivity check.
type wrec struct {
	pc   int
	addr uint64
	tid  int
}

// group materializes one granule's table rows as accesses sorted by
// (block, tid, pc, addr): the rows arrive grouped by thread in
// execution order, so only each thread's run is re-sorted.
func (sc *ruleScratch) group(rr *replayResult, rows []gent) []gacc {
	accs := sc.accs[:0]
	for _, e := range rows {
		th := &rr.threads[e.who]
		ac := &th.acc[e.idx]
		accs = append(accs, gacc{
			bid: th.bid, tid: th.tid, pc: int(ac.pc), bar: int(ac.bar),
			addr: ac.addr, write: ac.write(), atomic: ac.atomic(),
		})
	}
	for lo := 0; lo < len(accs); {
		hi := lo + 1
		for hi < len(accs) && accs[hi].bid == accs[lo].bid && accs[hi].tid == accs[lo].tid {
			hi++
		}
		if hi-lo > 1 {
			slices.SortStableFunc(accs[lo:hi], func(x, y gacc) int {
				if c := cmp.Compare(x.pc, y.pc); c != 0 {
					return c
				}
				return cmp.Compare(x.addr, y.addr)
			})
		}
		lo = hi
	}
	sc.accs = accs
	return accs
}

// byEpoch stably regroups accs by barrier count with one counting pass
// and returns the regrouped accesses with each epoch's end: epochs run
// in ascending bar order, epoch i is ep[ends[i-1]:ends[i]] (from 0 for
// the first), and an epoch no access reached is empty.
func (sc *ruleScratch) byEpoch(accs []gacc) (ep []gacc, ends []int) {
	lo, hi := accs[0].bar, accs[0].bar
	for _, a := range accs[1:] {
		lo, hi = min(lo, a.bar), max(hi, a.bar)
	}
	n := hi - lo + 1
	ends = slices.Grow(sc.ends[:0], n+1)[:n+1]
	clear(ends)
	for _, a := range accs {
		ends[a.bar-lo+1]++
	}
	for i := 1; i <= n; i++ {
		ends[i] += ends[i-1]
	}
	// ends[i] is now epoch i's start; scattering advances it to the end.
	ep = slices.Grow(sc.ep[:0], len(accs))[:len(accs)]
	for _, a := range accs {
		ep[ends[a.bar-lo]] = a
		ends[a.bar-lo]++
	}
	sc.ends, sc.ep = ends, ep
	return ep, ends[:n]
}

// quietGranule decides whether the granule's exact access multiset can
// produce any dynamic report, under any static-filter subset. Atomics
// are ignored throughout: the RDUs count their checks and return
// before the state machine, and the intra-warp dup scan skips them.
//
//   - all plain accesses from one thread: only the sameThread fast path
//     runs;
//   - no plain writes: reads move between the silent read states;
//   - shared space with block-uniform barrier counts: the shadow resets
//     at every barrier, so each bar-labelled epoch is independent and
//     must be quiet on its own;
//   - a warp-confined epoch (WarpAware) hits the sameWarp suppression;
//     distinct (pc, addr) writes per thread keep the intra-warp WAW
//     dup scan silent.
func (sc *ruleScratch) quietGranule(accs []gacc, space isa.Space, blockBars, warpAware bool, ws int) bool {
	plain := sc.sel[:0]
	for _, a := range accs {
		if !a.atomic {
			plain = append(plain, a)
		}
	}
	sc.sel = plain
	if sc.quietSet(plain, warpAware, ws, space == isa.SpaceGlobal) {
		return true
	}
	if space != isa.SpaceShared || !blockBars {
		return false
	}
	ep, ends := sc.byEpoch(plain)
	start := 0
	for _, end := range ends {
		if !sc.quietSet(ep[start:end], warpAware, ws, false) {
			return false
		}
		start = end
	}
	return true
}

// quietSet is the epoch-level aggregate: one thread, or no writes, or
// (warp-aware) one warp with injective writes. crossBlock demands the
// warp test also pin a single block (global granules are shared across
// blocks; shared keys already are block-local).
func (sc *ruleScratch) quietSet(accs []gacc, warpAware bool, ws int, crossBlock bool) bool {
	if len(accs) == 0 {
		return true
	}
	oneThread, writes := true, false
	for _, a := range accs {
		if a.bid != accs[0].bid || a.tid != accs[0].tid {
			oneThread = false
		}
		if a.write {
			writes = true
		}
	}
	if oneThread || !writes {
		return true
	}
	if !warpAware {
		return false
	}
	w0 := accs[0].tid / ws
	dup := sc.dup[:0]
	for _, a := range accs {
		if a.tid/ws != w0 || (crossBlock && a.bid != accs[0].bid) {
			return false
		}
		if a.write {
			dup = append(dup, wrec{a.pc, a.addr, a.tid})
		}
	}
	sc.dup = dup
	// Two lanes of one instruction on one address: after sorting, some
	// adjacent pair shares (pc, addr) with different threads.
	slices.SortFunc(dup, func(x, y wrec) int {
		if c := cmp.Compare(x.pc, y.pc); c != 0 {
			return c
		}
		if c := cmp.Compare(x.addr, y.addr); c != 0 {
			return c
		}
		return cmp.Compare(x.tid, y.tid)
	})
	for i := 1; i < len(dup); i++ {
		if dup[i].pc == dup[i-1].pc && dup[i].addr == dup[i-1].addr && dup[i].tid != dup[i-1].tid {
			return false
		}
	}
	return true
}

// raceWitness searches one granule's plain writes for a pair whose
// dynamic report is guaranteed (see the class constants; the guarantee
// arguments walk the shadow state machine adversarially and are
// granule-level: the unfiltered detector reports at least one race on
// this granule).
func (sc *ruleScratch) raceWitness(kernel string, space isa.Space, key uint64, accs []gacc,
	blockBars bool, ws, gran int) *Witness {
	writes := sc.sel[:0]
	for _, a := range accs {
		if a.write && !a.atomic {
			writes = append(writes, a)
		}
	}
	sc.sel = writes
	if len(writes) < 2 {
		return nil
	}
	g := key
	if space == isa.SpaceShared {
		g = key & 0xFFFFFFFF
	}
	mk := func(class string, x, y gacc) *Witness {
		return &Witness{
			Kind: WitnessRace, Kernel: kernel, Class: class,
			Space: space.String(), Granule: g,
			PC: x.pc, PC2: y.pc, Addr: x.addr, Addr2: y.addr,
			Block: x.bid, Tid: x.tid, Block2: y.bid, Tid2: y.tid,
			Method: "replay",
			Detail: fmt.Sprintf("granule %d (%d B): writers (b%d,t%d)@pc%d and (b%d,t%d)@pc%d",
				g, gran, x.bid, x.tid, x.pc, y.bid, y.tid, y.pc),
		}
	}
	if space == isa.SpaceGlobal {
		// Class 1: writers from two blocks. Cross-block pairs are immune
		// to every suppression (sameWarp and the sync-ID refresh both
		// need sameBlock), so the second block's first write must meet a
		// foreign claimant in state M.
		for i := 1; i < len(writes); i++ {
			if writes[i].bid != writes[0].bid {
				return mk(ClassCrossBlockWAW, writes[0], writes[i])
			}
		}
	}
	if !blockBars {
		return nil
	}
	// Classes 2/3: two warps writing within one barrier epoch. The later
	// writer either meets the other warp's claimant (report) or a
	// barrier-refreshed entry another same-epoch writer then trips; the
	// claimant cannot leave the granule's write chain within the epoch.
	class := ClassSharedEpoch
	if space == isa.SpaceGlobal {
		class = ClassSameBlockWAW
	}
	ep, ends := sc.byEpoch(writes)
	start := 0
	for _, end := range ends {
		e := ep[start:end]
		for i := 1; i < len(e); i++ {
			if e[i].bid == e[0].bid && e[i].tid/ws != e[0].tid/ws {
				return mk(class, e[0], e[i])
			}
		}
		start = end
	}
	return nil
}

// verifyRaceWitness independently re-replays the two claimed threads
// and re-derives every claim: both run to completion, both perform the
// claimed plain write on the claimed granule, and the class condition
// holds. Returns false — the witness is dropped — on any mismatch.
func (a *analyzer) verifyRaceWitness(w *Witness, space isa.Space, gran int) bool {
	find := func(bid, tid, pc int, addr uint64) (raccess, int, bool) {
		th, _, _ := a.replayThread(bid, tid, replayPerThreadSteps, 0)
		if !th.ok {
			return raccess{}, 0, false
		}
		for _, ac := range th.acc {
			if int(ac.pc) == pc && ac.addr == addr && ac.write() && !ac.atomic() &&
				(ac.shared() == (space == isa.SpaceShared)) {
				covers := ac.addr/uint64(gran) <= w.Granule &&
					w.Granule <= (ac.addr+uint64(ac.size)-1)/uint64(gran)
				if covers {
					return ac, th.bars, true
				}
			}
		}
		return raccess{}, 0, false
	}
	ac1, _, ok1 := find(w.Block, w.Tid, w.PC, w.Addr)
	ac2, _, ok2 := find(w.Block2, w.Tid2, w.PC2, w.Addr2)
	if !ok1 || !ok2 {
		return false
	}
	switch w.Class {
	case ClassCrossBlockWAW:
		return space == isa.SpaceGlobal && w.Block != w.Block2
	case ClassSameBlockWAW:
		return space == isa.SpaceGlobal && w.Block == w.Block2 &&
			w.Tid/a.conf.WarpSize != w.Tid2/a.conf.WarpSize && ac1.bar == ac2.bar
	case ClassSharedEpoch:
		return space == isa.SpaceShared && w.Block == w.Block2 &&
			w.Tid/a.conf.WarpSize != w.Tid2/a.conf.WarpSize && ac1.bar == ac2.bar
	}
	return false
}

// divergenceWitnesses pairs each barrier pc with a barrier-divergence
// finding with two concrete same-block threads that retire different
// barrier counts — the observable fact the lint's abstract argument
// predicts. The search depends only on the replay, so findings that
// share a pc share one witness.
func (a *analyzer) divergenceWitnesses(rr *replayResult, findings []Finding) []Witness {
	var out []Witness
	seen := map[int]bool{}
	for _, f := range findings {
		if f.Pass != PassBarrierDivergence || seen[f.PC] {
			continue
		}
		seen[f.PC] = true
		found := false
		for b := 0; b < a.k.GridDim && !found; b++ {
			base := b * a.k.BlockDim
			for t := 1; t < a.k.BlockDim; t++ {
				t0, t1 := &rr.threads[base], &rr.threads[base+t]
				if t0.ok && t1.ok && t0.bars != t1.bars {
					out = append(out, Witness{
						Kind: WitnessDivergence, Kernel: a.k.Name, PC: f.PC,
						Block: b, Tid: t0.tid, Block2: b, Tid2: t1.tid,
						Method: "replay",
						Detail: fmt.Sprintf("threads t%d and t%d of block %d retire %d vs %d barriers",
							t0.tid, t1.tid, b, t0.bars, t1.bars),
					})
					found = true
					break
				}
			}
		}
	}
	return out
}

func (a *analyzer) verifyDivergenceWitness(w *Witness) bool {
	t0, _, _ := a.replayThread(w.Block, w.Tid, replayPerThreadSteps, 0)
	t1, _, _ := a.replayThread(w.Block2, w.Tid2, replayPerThreadSteps, 0)
	return t0.ok && t1.ok && w.Block == w.Block2 && t0.bars != t1.bars
}

// oobWitnesses lifts the replay's concrete shared out-of-bounds
// records into witnesses, one per offending pc.
func (a *analyzer) oobWitnesses(rr *replayResult) []Witness {
	var out []Witness
	seen := map[int]bool{}
	for _, o := range rr.oobs {
		if seen[o.pc] {
			continue
		}
		seen[o.pc] = true
		out = append(out, Witness{
			Kind: WitnessOOB, Kernel: a.k.Name, PC: o.pc,
			Block: o.bid, Tid: o.tid, Addr: o.rel,
			Method: "replay",
			Detail: fmt.Sprintf("thread (b%d,t%d) accesses shared +%d (size %d) beyond the %d-byte window",
				o.bid, o.tid, o.rel, o.size, a.k.SharedBytes),
		})
	}
	return out
}

func (a *analyzer) verifyOOBWitness(w *Witness) bool {
	_, oobs, _ := a.replayThread(w.Block, w.Tid, replayPerThreadSteps, 0)
	for _, o := range oobs {
		if o.pc == w.PC && o.rel == w.Addr {
			return true
		}
	}
	return false
}

// fenceWitnesses turns each fence-misuse finding into a concrete
// store/load thread pair on one global granule. The fixture's replay
// taint-aborts at the election branch (it guards on an atomic result),
// so these witnesses are expression-derived and expression-checked:
// the store address must be a φ-free affine form the checker can
// evaluate for the claimed threads from scratch; the load may walk a
// loop (φ symbols), in which case phiReach searches the loop's
// range∩congruence members for an iteration landing on the store's
// granule.
func (a *analyzer) fenceWitnesses(findings []Finding, gran int) []Witness {
	var out []Witness
	budget := a.conf.MaxFootprintPoints
	for _, f := range findings {
		if f.Pass != PassFenceMisuse || len(f.Related) != 2 {
			continue
		}
		st, ld := a.sites[f.PC], a.sites[f.Related[1]]
		if st == nil || ld == nil || hasPhi(st.addr) {
			continue
		}
		sf := a.footprint(st, gran)
		if !sf.ok {
			continue
		}
		sg := sf.pts
		bd := int64(a.k.BlockDim)
		emit := func(g uint64, wt, rt int64, raddr uint64) {
			out = append(out, Witness{
				Kind: WitnessFence, Kernel: a.k.Name, Space: isa.SpaceGlobal.String(),
				PC: f.PC, PC2: f.Related[1], Granule: g,
				Addr:  a.evalAddr(st, wt%bd, wt/bd),
				Addr2: raddr,
				Block: int(wt / bd), Tid: int(wt % bd),
				Block2: int(rt / bd), Tid2: int(rt % bd),
				Method: "expr",
				Detail: fmt.Sprintf("store@pc%d by (b%d,t%d) is read unfenced at pc%d by the thread elected at pc%d",
					f.PC, wt/bd, wt%bd, f.Related[1], f.Related[0]),
			})
		}
		if !hasPhi(ld.addr) {
			lf := a.footprint(ld, gran)
			if !lf.ok {
				continue
			}
			lg := lf.pts
			readers := map[uint64]int64{}
			for i := 0; i < len(lg); i += 2 {
				if _, dup := readers[lg[i]]; !dup {
					readers[lg[i]] = int64(lg[i+1])
				}
			}
			for i := 0; i < len(sg); i += 2 {
				g, wt := sg[i], int64(sg[i+1])
				rt, ok := readers[g]
				if !ok || rt == wt {
					continue
				}
				emit(g, wt, rt, a.evalAddr(ld, rt%bd, rt/bd))
				break
			}
			continue
		}
		// Loop reader: any thread may be elected, so pick the first
		// (reader thread, loop iteration) pair covering some stored
		// granule, reader distinct from its writer. Candidate counts
		// are capped; one witness per finding suffices.
		rst := &state{ranges: ld.ranges}
		rtids := a.rangeOf(rst, SymTid).intersect(ival{0, bd - 1})
		rbids := a.rangeOf(rst, SymBid).intersect(ival{0, int64(a.k.GridDim) - 1})
		if rtids.empty() || rbids.empty() {
			continue
		}
		const maxCand = 8
		found := false
		for i := 0; i < len(sg) && i < 2*maxCand && !found; i += 2 {
			g, wt := sg[i], int64(sg[i+1])
			for rb := rbids.lo; rb <= rbids.hi && rb < rbids.lo+maxCand && !found; rb++ {
				for rt := rtids.lo; rt <= rtids.hi && rt < rtids.lo+maxCand && !found; rt++ {
					if rb*bd+rt == wt {
						continue
					}
					raddr, ok := a.phiReach(ld, rt, rb, g, gran, budget)
					if !ok {
						continue
					}
					emit(g, wt, rb*bd+rt, raddr)
					found = true
				}
			}
		}
	}
	return out
}

// verifyFenceWitness re-evaluates both address expressions for the
// claimed threads (re-running the φ search for a loop reader) and
// re-checks the granule overlap, the thread distinction, and the
// fence-free store→election path.
func (a *analyzer) verifyFenceWitness(w *Witness, gran int) bool {
	st, ld := a.sites[w.PC], a.sites[w.PC2]
	if st == nil || ld == nil || hasPhi(st.addr) {
		return false
	}
	if w.Block == w.Block2 && w.Tid == w.Tid2 {
		return false
	}
	sa := a.evalAddr(st, int64(w.Tid), int64(w.Block))
	var la uint64
	if hasPhi(ld.addr) {
		r, ok := a.phiReach(ld, int64(w.Tid2), int64(w.Block2), w.Granule, gran, a.conf.MaxFootprintPoints)
		if !ok {
			return false
		}
		la = r
	} else {
		la = a.evalAddr(ld, int64(w.Tid2), int64(w.Block2))
	}
	if sa != w.Addr || la != w.Addr2 {
		return false
	}
	g := uint64(gran)
	if sa/g != w.Granule && (sa+uint64(st.size)-1)/g < w.Granule {
		return false
	}
	overlap := sa/g <= (la+uint64(ld.size)-1)/g && la/g <= (sa+uint64(st.size)-1)/g
	if !overlap {
		return false
	}
	// The finding's middle pc is the election atomic; the misuse claim
	// is a fence-free path from the store to it.
	for _, f := range a.lintFenceMisuse() {
		if f.PC == w.PC && len(f.Related) == 2 && f.Related[1] == w.PC2 {
			return true
		}
	}
	return false
}

func hasPhi(e Expr) bool {
	if e.top {
		return true
	}
	for _, t := range e.terms {
		if t.sym >= symFirstPhi {
			return true
		}
	}
	return false
}

// evalAddr concretely evaluates a φ-free site address for one thread,
// with the executor's wrapping uint64 arithmetic.
func (a *analyzer) evalAddr(s *siteAcc, tid, bid int64) uint64 {
	ws := int64(a.conf.WarpSize)
	v := uint64(s.addr.c)
	for _, t := range s.addr.terms {
		switch t.sym {
		case SymTid:
			v += uint64(t.coef) * uint64(tid)
		case SymBid:
			v += uint64(t.coef) * uint64(bid)
		case SymLane:
			v += uint64(t.coef) * uint64(tid%ws)
		case SymWarp:
			v += uint64(t.coef) * uint64(tid/ws)
		}
	}
	return v
}

// phiReach searches for a concrete address of site s, executed by
// thread (tid, bid), that falls within global granule targetG — the φ
// symbols in the address iterate over their range∩congruence members
// exactly as enumerate does, and the first hit (deterministic order)
// is returned. The thread must satisfy the site's path conditions.
func (a *analyzer) phiReach(s *siteAcc, tid, bid int64, targetG uint64, gran int, budget int64) (uint64, bool) {
	if s.addr.top || s.size <= 0 {
		return 0, false
	}
	st := &state{ranges: s.ranges}
	ws := int64(a.conf.WarpSize)
	if !a.rangeOf(st, SymTid).contains(tid) || !a.rangeOf(st, SymBid).contains(bid) ||
		!a.rangeOf(st, SymLane).contains(tid%ws) || !a.rangeOf(st, SymWarp).contains(tid/ws) {
		return 0, false
	}
	base := uint64(s.addr.c) +
		uint64(s.addr.termCoef(SymTid))*uint64(tid) +
		uint64(s.addr.termCoef(SymBid))*uint64(bid) +
		uint64(s.addr.termCoef(SymLane))*uint64(tid%ws) +
		uint64(s.addr.termCoef(SymWarp))*uint64(tid/ws)
	var syms []symID
	var starts, steps, counts []int64
	points := int64(1)
	for _, t := range s.addr.terms {
		switch t.sym {
		case SymTid, SymBid, SymLane, SymWarp:
		default:
			r := a.rangeOf(st, t.sym)
			if !r.bounded() || r.empty() {
				return 0, false
			}
			start, step, count := congStep(r, a.congOf(t.sym))
			if count <= 0 || points > budget/count {
				return 0, false
			}
			points *= count
			syms = append(syms, t.sym)
			starts = append(starts, start)
			steps = append(steps, step)
			counts = append(counts, count)
		}
	}
	gsize := uint64(gran)
	span := uint64(s.size-1) / gsize
	var walk func(addr uint64, depth int) (uint64, bool)
	walk = func(addr uint64, depth int) (uint64, bool) {
		if depth == len(syms) {
			g0 := addr / gsize
			if targetG >= g0 && targetG <= g0+span {
				return addr, true
			}
			return 0, false
		}
		c := uint64(s.addr.termCoef(syms[depth]))
		v := starts[depth]
		for i := int64(0); i < counts[depth]; i++ {
			if r, ok := walk(addr+c*uint64(v), depth+1); ok {
				return r, ok
			}
			v += steps[depth]
		}
		return 0, false
	}
	return walk(base, 0)
}
