package staticrace

import (
	"math/bits"

	"haccrg/internal/isa"
)

// SiteClass is the race-freedom verdict for one memory site.
type SiteClass uint8

const (
	// ClassUnknown: nothing proven; the site must stay on the dynamic
	// detector's hot path.
	ClassUnknown SiteClass = iota
	// ClassPrivate: every granule the site touches is touched by at
	// most one thread over the whole kernel.
	ClassPrivate
	// ClassReadShared: every granule the site touches is never written
	// by any site.
	ClassReadShared
	// ClassRaceFree: a mix — each granule is either single-thread,
	// never written, or discharged by the pairwise epoch/warp rules.
	ClassRaceFree
	// ClassQuiet: proven race-free by the concrete replay (every
	// granule the site touches is quiet in the exact execution).
	ClassQuiet
	// ClassRacy: a verified concrete race witness touches one of the
	// site's granules; the site must stay on the hot path.
	ClassRacy
)

func (c SiteClass) String() string {
	switch c {
	case ClassPrivate:
		return "private"
	case ClassReadShared:
		return "read-shared"
	case ClassRaceFree:
		return "race-free"
	case ClassQuiet:
		return "quiet"
	case ClassRacy:
		return "provable-race"
	}
	return "unknown"
}

// filterable reports whether the dynamic detector may skip checks for
// a site of this class.
func (c SiteClass) filterable() bool {
	return c != ClassUnknown && c != ClassRacy
}

// span is one site's thread footprint on one granule: the bounding box
// of the (block, block-local tid) pairs that can touch it. The
// pairwise prover reasons about spans instead of exact thread sets —
// a bounding box inside one warp proves "all accessors share a warp"
// without storing the set.
type span struct {
	site       *siteAcc
	minT, maxT int64
	minB, maxB int64
}

func (sp *span) add(b, t int64) {
	if t < sp.minT {
		sp.minT = t
	}
	if t > sp.maxT {
		sp.maxT = t
	}
	if b < sp.minB {
		sp.minB = b
	}
	if b > sp.maxB {
		sp.maxB = b
	}
}

func (sp *span) oneThread() bool { return sp.minT == sp.maxT && sp.minB == sp.maxB }

// Caps for the pairwise refinement working set.
const maxPairSpans = 1 << 18

// proveSpace classifies every live site of one memory space.
//
// Base criterion (sync-insensitive, granule-level): a granule is
// race-free iff it is never written, or touched by exactly one
// distinct thread over the whole kernel. A site may be filtered iff
// every granule it can touch is race-free. Soundness against the
// dynamic RDU:
//
//   - single-thread granules only ever hit the sameThread fast path of
//     the happens-before state machine, which never reports;
//   - never-written granules keep reads in the read states, which
//     never report either;
//   - the intra-warp WAW check needs two lanes on one address, which
//     makes the granule multi-thread and hence the site unfilterable.
//
// Granules that fail the base criterion get a second chance from the
// pairwise rules (pairSafe): per conflicting granule, every pair of
// sites touching it must be individually silent — atomics are
// invisible to the state machine, read/read pairs never report,
// shared-space sites confined to disjoint barrier epochs never meet in
// the shadow (it resets at every barrier), and warp-confined conflicts
// are the lockstep sharing the WarpAware detector deliberately
// ignores.
//
// Atomics count as writes. Unknown footprints poison conservatively:
// an unknown *write* poisons the whole space (it could write any
// granule); an unknown *read* restricts race-freedom to never-written
// granules (it could observe any written granule, and filtering the
// writer would change what the unfiltered reader reports). Shared
// sites whose footprint blows the point budget fall back to an
// analytic strided form (strideOf) before poisoning.
func (a *analyzer) proveSpace(space isa.Space, gran int, out []*SiteInfo) {
	// The point budget is spent in site order, which is pc order.
	var live []*siteAcc
	unknownWrite, unknownRead := false, false
	for _, s := range a.sites {
		if s == nil || s.space != space || s.dead {
			continue
		}
		live = append(live, s)
	}
	// Shared shadow windows are slot-relative; if the block's window is
	// not granule-aligned, one granule can span two co-resident blocks'
	// windows and block-relative footprints no longer map 1:1 onto
	// runtime granules. Poison the space.
	poisoned := space == isa.SpaceShared && a.k.SharedBytes%gran != 0
	foots := make([]siteFoot, 0, len(live))
	var strided []*strideFoot
	var total int64
	for _, s := range live {
		var gr []uint64
		ok := !poisoned
		if ok {
			f := a.footprint(s, gran)
			gr, ok = f.pts, f.ok
		}
		if ok {
			total += int64(len(gr))
			if total > a.conf.MaxFootprintPoints {
				ok = false
			}
		}
		if !ok {
			// Analytic fallback: a pure tid-strided shared site has a
			// closed-form footprint no budget can defeat.
			if space == isa.SpaceShared && !poisoned {
				if sf, sok := a.strideOf(s, gran); sok {
					strided = append(strided, sf)
					continue
				}
			}
			if s.write || s.atomic {
				unknownWrite = true
			} else {
				unknownRead = true
			}
			continue
		}
		foots = append(foots, siteFoot{site: s, pts: gr})
	}
	// An unknown write leaves every site unknown; nothing below can
	// change that, so the granule table is only built without one.
	// Pairwise refinement is disabled when the program uses
	// critical-section markers (the lockset machinery has its own
	// report paths) or when the working set blows the cap.
	var facts []footFacts
	if !unknownWrite {
		pairwise := !unknownRead && !a.progAcqMark()
		facts = a.granuleFacts(space, foots, strided, pairwise)
	}
	// Strided-vs-strided: two progressions are jointly single-owner iff
	// identical (same granule → same thread); otherwise any overlap is a
	// conservative conflict.
	for i, x := range strided {
		for j, y := range strided {
			if i == j || !strideOverlap(x, y) {
				continue
			}
			if x.cG != y.cG || x.stepG != y.stepG {
				x.multi = true
			}
			if y.s.write || y.s.atomic {
				x.otherWrite = true
			}
		}
	}

	for fi, f := range foots {
		s := f.site
		info := out[s.pc]
		info.Granules = len(f.pts) / 2
		if unknownWrite {
			info.Class = ClassUnknown
			continue
		}
		ff := facts[fi]
		single, unwritten := !ff.multi, !ff.written
		switch {
		case unknownRead && !unwritten:
			// A statically-opaque read may alias this written granule.
			info.Class = ClassUnknown
		case single && unwritten:
			if len(f.pts) == 0 {
				info.Class = ClassPrivate
			} else if s.write || s.atomic {
				info.Class = ClassPrivate
			} else {
				info.Class = ClassReadShared
			}
		case single:
			info.Class = ClassPrivate
		case unwritten:
			info.Class = ClassReadShared
		default:
			// Mixed: every granule individually race-free?
			if !ff.unsafe {
				info.Class = ClassRaceFree
			} else {
				info.Class = ClassUnknown
			}
		}
	}

	for _, sf := range strided {
		info := out[sf.s.pc]
		selfW := sf.s.write || sf.s.atomic
		unwritten := !selfW && !sf.otherWrite
		switch {
		case unknownWrite:
			info.Class = ClassUnknown
		case unknownRead && !unwritten:
			info.Class = ClassUnknown
		case !sf.multi:
			info.Class = ClassPrivate
		case unwritten:
			info.Class = ClassReadShared
		default:
			info.Class = ClassUnknown
		}
		info.Granules = int(sf.tids.hi - sf.tids.lo + 1)
	}
}

// siteFoot is one site the prover enumerated, with its footprint.
type siteFoot struct {
	site *siteAcc
	pts  []uint64 // flat [g0, t0, g1, t1, ...]
}

// footFacts folds the per-granule verdicts over one footprint.
type footFacts struct {
	multi    bool // some granule has two distinct accessing threads
	written  bool // some granule is written (atomics count)
	conflict bool // some granule is both
	unsafe   bool // some conflicting granule is not pairwise-safe
}

// granuleFacts decides ownership per granule over the known footprints
// and folds the verdicts back onto each footprint. It lays every
// (granule, thread, footprint) point out as one table row — a point
// repeated back to back adds nothing, since every per-granule fact is
// idempotent, so repeats are dropped — and sorts the rows by granule,
// which keeps footprint order within a granule. Each granule run then
// yields its owner (one thread, or several), whether any site writes
// it, the strided sites' touches, and, for conflicting granules, one
// thread-bounding span per footprint for the pairwise rules. Spans
// beyond maxPairSpans void every pairwise verdict.
func (a *analyzer) granuleFacts(space isa.Space, foots []siteFoot, strided []*strideFoot, pairwise bool) []footFacts {
	repeat := func(pts []uint64, i int) bool {
		return i > 0 && pts[i] == pts[i-2] && pts[i+1] == pts[i-1]
	}
	n := 0
	for _, f := range foots {
		for i := 0; i < len(f.pts); i += 2 {
			if !repeat(f.pts, i) {
				n++
			}
		}
	}
	t := a.table(n)
	for fi, f := range foots {
		for i := 0; i < len(f.pts); i += 2 {
			if !repeat(f.pts, i) {
				t = append(t, gent{key: f.pts[i], who: f.pts[i+1], idx: uint32(fi)})
			}
		}
	}
	t = a.sortTable(t)

	facts := make([]footFacts, len(foots))
	ws, bd := int64(a.conf.WarpSize), int64(a.k.BlockDim)
	overflow := false
	var nSpans int64
	var spans []span
	for lo := 0; lo < len(t); {
		hi := keyRun(t, lo)
		g := t[lo:hi]
		lo = hi
		owner, written := int64(g[0].who), false
		for _, e := range g {
			if int64(e.who) != owner {
				owner = -2
			}
			if s := foots[e.idx].site; s.write || s.atomic {
				written = true
			}
		}
		// Strided sites interleave with the enumerated granules: merge
		// their touches into the ownership (forward) and record
		// conflicts the enumerated sites impose on them (reverse). The
		// reverse flags read the pre-merge state so strided-vs-strided
		// interactions are settled only by the progression rules.
		touched := false
		if len(strided) > 0 {
			b, gi := int64(0), int64(g[0].key)
			if space == isa.SpaceShared {
				b, gi = int64(g[0].key>>32), int64(g[0].key&0xFFFFFFFF)
			}
			preOwner, preWritten := owner, written
			for _, sf := range strided {
				tid := sf.touchTid(b, gi, ws)
				if tid < 0 {
					continue
				}
				touched = true
				gtid := b*bd + tid
				if preOwner != gtid {
					sf.multi = true
				}
				if preWritten {
					sf.otherWrite = true
				}
				if owner != gtid {
					owner = -2
				}
				if sf.s.write || sf.s.atomic {
					written = true
				}
			}
		}
		conflict := owner == -2 && written
		safe := false
		if conflict && pairwise && !touched && !overflow {
			spans = spans[:0]
			for i := 0; i < len(g); {
				j := i + 1
				for j < len(g) && g[j].idx == g[i].idx {
					j++
				}
				gtid := int64(g[i].who)
				sp := span{site: foots[g[i].idx].site, minT: gtid % bd, maxT: gtid % bd, minB: gtid / bd, maxB: gtid / bd}
				for _, e := range g[i+1 : j] {
					sp.add(int64(e.who)/bd, int64(e.who)%bd)
				}
				spans = append(spans, sp)
				i = j
			}
			nSpans += int64(len(spans))
			if nSpans > maxPairSpans {
				overflow = true
			} else {
				safe = a.spansSafe(space, spans)
			}
		}
		for _, e := range g {
			f := &facts[e.idx]
			f.multi = f.multi || owner == -2
			f.written = f.written || written
			f.conflict = f.conflict || conflict
			f.unsafe = f.unsafe || (conflict && !safe)
		}
	}
	if overflow {
		for i := range facts {
			facts[i].unsafe = facts[i].conflict
		}
	}
	return facts
}

// spansSafe reports whether every pair of one granule's spans,
// self-pairs included, is individually silent.
func (a *analyzer) spansSafe(space isa.Space, spans []span) bool {
	for i := range spans {
		for j := i; j < len(spans); j++ {
			if !a.pairSafe(space, &spans[i], &spans[j]) {
				return false
			}
		}
	}
	return true
}

// pairSafe decides whether the (claimant-site, event-site) pair can
// produce a report on a granule both touch. All rules are symmetric,
// so one call settles both orders:
//
//  1. atomic sites never enter the state machine (checks count, then
//     continue) and never leave claimant state;
//  2. read/read pairs only move between the read states, which never
//     report;
//  3. a pair confined to one identical thread hits the sameThread
//     suppression;
//  4. shared-space sites that provably never share a barrier epoch
//     never meet in the shadow — it resets at every barrier;
//  5. with WarpAware, a pair whose spans sit inside one common warp
//     (one common block for global) hits the sameWarp suppression;
//     a self-paired write additionally needs per-warp address
//     injectivity so the intra-warp WAW dup scan stays silent.
func (a *analyzer) pairSafe(space isa.Space, x, y *span) bool {
	if x.site.atomic || y.site.atomic {
		return true
	}
	if !x.site.write && !y.site.write {
		return true
	}
	if x.oneThread() && y.oneThread() && x.minT == y.minT && x.minB == y.minB {
		return true
	}
	if space == isa.SpaceShared && !a.epochOf().maySameEpoch(x.site.pc, y.site.pc) {
		return true
	}
	if a.conf.WarpAware {
		ws := int64(a.conf.WarpSize)
		oneWarp := x.minT/ws == x.maxT/ws && y.minT/ws == y.maxT/ws && x.minT/ws == y.minT/ws
		oneBlock := space == isa.SpaceShared ||
			(x.minB == x.maxB && y.minB == y.maxB && x.minB == y.minB)
		if oneWarp && oneBlock {
			if x != y {
				return true
			}
			return !x.site.write || a.warpInjective(x.site)
		}
	}
	return false
}

// warpInjective reports whether, within any one warp, no two distinct
// threads of the warp can write the same byte address at this site —
// the condition under which the intra-warp WAW dup scan cannot fire.
// Within one warp the warp index is constant and lane = tid − ws·warp,
// so an affine address over the base coordinates collapses to
// c′ + (kTid+kLane)·tid, injective iff the coefficient is nonzero (and
// far from a 2^64 torsion point; the trailing-zero guard keeps the
// wrapped products distinct for any realistic block size).
func (a *analyzer) warpInjective(s *siteAcc) bool {
	if !s.write {
		return true
	}
	var kT, kL int64
	for _, t := range s.addr.terms {
		switch t.sym {
		case SymTid:
			kT = t.coef
		case SymLane:
			kL = t.coef
		case SymBid, SymWarp:
			// Constant within one warp.
		default:
			return false // φ symbol: one thread writes many addresses
		}
	}
	k, ok := addOvf(kT, kL)
	if !ok || k == 0 {
		return false
	}
	if k < 0 {
		k = -k
	}
	return bits.TrailingZeros64(uint64(k)) < 40
}

// epochOf lazily builds the barrier-epoch reachability summary.
func (a *analyzer) epochOf() *epochInfo {
	if a.epochs == nil {
		a.epochs = buildEpochInfo(a.prog)
	}
	return a.epochs
}

// strideFoot is the analytic footprint of a pure tid-strided shared
// site: addr = c + kT·tid with granule-aligned stride and no granule
// straddling, so thread t owns exactly granule cG + stepG·t. The
// progression is strictly monotone in t — injective — which makes the
// site single-owner against itself with no enumeration at all.
type strideFoot struct {
	s            *siteAcc
	cG, stepG    int64
	tids, bids   ival
	lanes, warps ival
	multi        bool // some granule reachable by a different thread
	otherWrite   bool // some overlapping site writes
}

// strideOf recognizes the analytic form. Shared space only: the
// block-qualified granule keys make every block's progression
// independent, which a global-space granule shared across blocks would
// break (every block's thread t would collide on one granule).
func (a *analyzer) strideOf(s *siteAcc, gran int) (*strideFoot, bool) {
	if s.addr.top || s.size <= 0 {
		return nil, false
	}
	if len(s.addr.terms) != 1 || s.addr.terms[0].sym != SymTid {
		return nil, false
	}
	kT, c, g := s.addr.terms[0].coef, s.addr.c, int64(gran)
	if kT <= 0 || c < 0 || kT >= 1<<32 || c >= 1<<32 {
		return nil, false
	}
	if kT%g != 0 || c%g+int64(s.size) > g {
		return nil, false
	}
	st := &state{ranges: s.ranges}
	tids := a.rangeOf(st, SymTid).intersect(ival{0, int64(a.k.BlockDim) - 1})
	bids := a.rangeOf(st, SymBid).intersect(ival{0, int64(a.k.GridDim) - 1})
	if tids.empty() || bids.empty() {
		return nil, false
	}
	return &strideFoot{
		s: s, cG: c / g, stepG: kT / g, tids: tids, bids: bids,
		lanes: a.rangeOf(st, SymLane), warps: a.rangeOf(st, SymWarp),
	}, true
}

// touchTid returns the block-local thread that can reach granule g of
// block b, or -1. The claimed thread set over-approximates the real
// one (path conditions beyond the recorded ranges are dropped), which
// only ever adds conflicts.
func (sf *strideFoot) touchTid(b, g, ws int64) int64 {
	d := g - sf.cG
	if d < 0 || d%sf.stepG != 0 {
		return -1
	}
	t := d / sf.stepG
	if !sf.tids.contains(t) || !sf.bids.contains(b) {
		return -1
	}
	if !sf.lanes.contains(t%ws) || !sf.warps.contains(t/ws) {
		return -1
	}
	return t
}

// strideOverlap reports whether two progressions can share a granule:
// intersecting ranges plus a solvable congruence cG ≡ cG′ modulo
// gcd(stepG, stepG′).
func strideOverlap(x, y *strideFoot) bool {
	xlo, xhi := x.cG+x.stepG*x.tids.lo, x.cG+x.stepG*x.tids.hi
	ylo, yhi := y.cG+y.stepG*y.tids.lo, y.cG+y.stepG*y.tids.hi
	if xhi < ylo || yhi < xlo {
		return false
	}
	d := gcd64(x.stepG, y.stepG)
	return (x.cG-y.cG)%d == 0
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// footKey addresses one memoized footprint.
type footKey struct{ pc, gran int }

// footprint is one site's enumerated footprint at one granularity. It
// is computed at most once per Analyze call; every user only reads it.
type footprint struct {
	pts []uint64 // flat [g0, t0, g1, t1, ...], as enumerate returns it
	ok  bool
	own []gown // the fence lint's owner table, built on first use
}

// footprint returns the memoized footprint of site s at granularity
// gran, enumerating it on first use.
func (a *analyzer) footprint(s *siteAcc, gran int) *footprint {
	k := footKey{s.pc, gran}
	f := a.foots[k]
	if f == nil {
		f = &footprint{}
		f.pts, f.ok = a.enumerate(s, gran)
		a.foots[k] = f
	}
	return f
}

// enumerate walks a site's concrete footprint: every (granule, global
// thread id) pair the site can touch, as a flat [g0, t0, g1, t1, ...]
// slice. Address arithmetic is wrapping uint64, exactly like the
// executor. φ symbols iterate over their interval intersected with
// their solved congruence — a strided loop counter steps by its
// stride, not by one — which is what keeps strided footprints inside
// the point budget. Returns ok=false when the footprint is statically
// unknown or exceeds the budget. Callers go through the memo
// (footprint), not here.
func (a *analyzer) enumerate(s *siteAcc, gran int) ([]uint64, bool) {
	if s.addr.top || s.size <= 0 {
		return nil, false
	}
	budget := a.conf.MaxFootprintPoints
	st := &state{ranges: s.ranges}
	// Iteration ranges for the thread coordinates, clipped to launch
	// geometry (refinement can only have narrowed them).
	ws := int64(a.conf.WarpSize)
	tids := a.rangeOf(st, SymTid).intersect(ival{0, int64(a.k.BlockDim) - 1})
	bids := a.rangeOf(st, SymBid).intersect(ival{0, int64(a.k.GridDim) - 1})
	lanes := a.rangeOf(st, SymLane)
	warps := a.rangeOf(st, SymWarp)
	if tids.empty() || bids.empty() {
		return nil, true // provably no executing thread
	}
	// φ symbols appearing in the address must have bounded ranges.
	var phiSyms []symID
	var phiStart, phiStep, phiCount []int64
	for _, t := range s.addr.terms {
		switch t.sym {
		case SymTid, SymBid, SymLane, SymWarp:
		default:
			r := a.rangeOf(st, t.sym)
			if !r.bounded() || r.empty() {
				return nil, false
			}
			start, step, count := congStep(r, a.congOf(t.sym))
			if count <= 0 {
				return nil, true // range ∩ congruence empty: never executes
			}
			phiSyms = append(phiSyms, t.sym)
			phiStart = append(phiStart, start)
			phiStep = append(phiStep, step)
			phiCount = append(phiCount, count)
		}
	}
	coefTid := s.addr.termCoef(SymTid)
	coefBid := s.addr.termCoef(SymBid)
	coefLane := s.addr.termCoef(SymLane)
	coefWarp := s.addr.termCoef(SymWarp)
	// Point budget: threads × φ-member product.
	points := (tids.hi - tids.lo + 1) * (bids.hi - bids.lo + 1)
	if points <= 0 {
		return nil, false
	}
	for _, n := range phiCount {
		if points > budget/n {
			return nil, false
		}
		points *= n
	}
	if points > budget {
		return nil, false
	}
	gsize := uint64(gran)
	span := uint64(s.size-1) / gsize // extra granules past the first
	// Exact size: every executing thread emits one pair per φ member
	// and straddled granule; the path conditions drop whole threads.
	perThread := int64(span + 1)
	for _, n := range phiCount {
		perThread *= n
	}
	var threads int64
	for tid := tids.lo; tid <= tids.hi; tid++ {
		if lanes.contains(tid%ws) && warps.contains(tid/ws) {
			threads++
		}
	}
	res := make([]uint64, 0, 2*threads*(bids.hi-bids.lo+1)*perThread)
	var emit func(base uint64, gtid int64, depth int)
	emit = func(base uint64, gtid int64, depth int) {
		if depth == len(phiSyms) {
			g0 := base / gsize
			for g := g0; g <= g0+span; g++ {
				key := g
				if s.space == isa.SpaceShared {
					// Block-qualified: shared windows are per-block.
					key = uint64(gtid/int64(a.k.BlockDim))<<32 | (g & 0xFFFFFFFF)
				}
				res = append(res, key, uint64(gtid))
			}
			return
		}
		c := uint64(s.addr.termCoef(phiSyms[depth]))
		v := phiStart[depth]
		for i := int64(0); i < phiCount[depth]; i++ {
			emit(base+c*uint64(v), gtid, depth+1)
			v += phiStep[depth]
		}
	}
	for bid := bids.lo; bid <= bids.hi; bid++ {
		for tid := tids.lo; tid <= tids.hi; tid++ {
			lane, warp := tid%ws, tid/ws
			if !lanes.contains(lane) || !warps.contains(warp) {
				continue // path conditions exclude this thread
			}
			base := uint64(s.addr.c) +
				uint64(coefTid)*uint64(tid) +
				uint64(coefBid)*uint64(bid) +
				uint64(coefLane)*uint64(lane) +
				uint64(coefWarp)*uint64(warp)
			gtid := bid*int64(a.k.BlockDim) + tid
			emit(base, gtid, 0)
		}
	}
	return res, true
}
