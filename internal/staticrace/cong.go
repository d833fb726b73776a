package staticrace

import "math/bits"

// cong is a power-of-two congruence: the set of uint64 values v with
// v ≡ off (mod m). Two sentinel moduli complete the lattice:
//
//	m == 0  the exact constant off (⊥ of the value, strongest fact)
//	m == 1  top (every value)
//
// Every other modulus is a power of two. Restricting moduli to powers
// of two is what keeps the domain sound under the executor's wrapping
// uint64 arithmetic: a ≡ b (mod 2^k) is preserved by wrap-around
// because 2^k divides 2^64, which no other modulus family guarantees.
// The offsets of strided GPU addressing (element sizes 1/2/4/8/16,
// AND-masks, shifts) are power-of-two anyway, so nothing of practical
// value is lost.
type cong struct {
	mod uint64
	off uint64
}

func congConst(c uint64) cong { return cong{mod: 0, off: c} }
func congTop() cong           { return cong{mod: 1, off: 0} }

func (c cong) isTop() bool   { return c.mod == 1 }
func (c cong) isConst() bool { return c.mod == 0 }

// minMod is the weaker (smaller) of two moduli, with 0 acting as the
// infinite modulus of an exact constant.
func minMod(a, b uint64) uint64 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	if a < b {
		return a
	}
	return b
}

// join is the lattice join (least upper bound); because power-of-two
// moduli form finite divisor chains it doubles as the widening.
func (x cong) join(y cong) cong {
	if x == y {
		return x
	}
	if x.isTop() || y.isTop() {
		return congTop()
	}
	m := minMod(x.mod, y.mod)
	if d := x.off - y.off; d != 0 {
		// The offsets differ by d, so only the congruence modulo the
		// 2-adic part of d survives. Wrapping subtraction keeps the low
		// bits of the true difference, which is all lowbit() reads.
		m = minMod(m, d&-d)
	}
	if m == 0 {
		return cong{mod: 0, off: x.off} // equal constants
	}
	if m == 1 {
		return congTop()
	}
	return cong{mod: m, off: x.off & (m - 1)}
}

// add is the sound transfer for wrapping uint64 addition.
func (x cong) add(y cong) cong {
	if x.isTop() || y.isTop() {
		return congTop()
	}
	if x.isConst() && y.isConst() {
		return congConst(x.off + y.off)
	}
	m := minMod(x.mod, y.mod) // ≥ 2 here
	return cong{mod: m, off: (x.off + y.off) & (m - 1)}
}

// scale is the sound transfer for wrapping multiplication by the
// constant k (k may encode a negative int64 coefficient in two's
// complement; only its 2-adic valuation matters). From v ≡ off
// (mod 2^a): k·v ≡ k·off (mod 2^(a+v₂(k))); when a+v₂(k) ≥ 64 the
// product is determined modulo 2^64, i.e. an exact constant.
func (x cong) scale(k uint64) cong {
	if k == 0 {
		return congConst(0)
	}
	if x.isConst() {
		return congConst(x.off * k)
	}
	a := bits.TrailingZeros64(x.mod) // top has mod 1 → a = 0
	b := bits.TrailingZeros64(k)
	if a+b >= 64 {
		return congConst(x.off * k)
	}
	m := uint64(1) << (a + b)
	if m == 1 {
		return congTop()
	}
	return cong{mod: m, off: (x.off * k) & (m - 1)}
}

// maskLow is the transfer for v & mask. A low-bit mask (2^k - 1)
// truncates the value modulo 2^k; any other mask still forces the
// bits below its lowest set bit to zero.
func (x cong) maskLow(mask uint64) cong {
	if mask == 0 {
		return congConst(0)
	}
	if (mask+1)&mask == 0 && mask+1 != 0 { // mask = 2^k - 1
		k := uint64(mask + 1)
		if x.isConst() {
			return congConst(x.off & mask)
		}
		if !x.isTop() && x.mod > k {
			// v ≡ off (mod 2^a) with a > k determines v mod 2^k exactly.
			return congConst(x.off & mask)
		}
		m := minMod(x.mod, k)
		if m == 1 {
			return congTop()
		}
		return cong{mod: m, off: x.off & (m - 1)}
	}
	lb := mask & -mask
	if lb == 1 {
		return congTop()
	}
	return cong{mod: lb, off: 0}
}

// shr is the transfer for a logical right shift of a value known to be
// non-negative (the analyzer only mints shift symbols under that
// guard, where arithmetic and logical shifts agree). v = off + t·2^a
// with 0 ≤ off < 2^a gives v>>s = (off>>s) + t·2^(a-s) exactly.
func (x cong) shr(s uint64) cong {
	if s == 0 {
		return x
	}
	if x.isConst() {
		return congConst(x.off >> s)
	}
	if x.isTop() {
		return congTop()
	}
	a := uint64(bits.TrailingZeros64(x.mod))
	if a <= s {
		return congTop()
	}
	m := x.mod >> s
	return cong{mod: m, off: (x.off & (x.mod - 1)) >> s}
}

// congStep enumerates the members of r ∩ c: the first member, the
// step between members, and the member count. Moduli above 2^32 are
// weakened to 2^32 first — weakening a congruence only adds values,
// which keeps the enumeration a sound over-approximation while the
// int64 stepping below stays overflow-free.
func congStep(r ival, c cong) (start, step, count int64) {
	if r.empty() {
		return 0, 1, 0
	}
	if c.isConst() {
		v := int64(c.off)
		if r.contains(v) {
			return v, 1, 1
		}
		return 0, 1, 0
	}
	m := c.mod
	if m > 1<<32 {
		m = 1 << 32
	}
	if m == 1 {
		return r.lo, 1, r.hi - r.lo + 1
	}
	delta := (c.off - uint64(r.lo)) & (m - 1)
	start = r.lo + int64(delta)
	if start > r.hi {
		return 0, 1, 0
	}
	step = int64(m)
	count = (r.hi-start)/step + 1
	return start, step, count
}

// Derived-symbol kinds (pc-keyed symbols minted by the transfer
// functions for results that leave the affine domain but keep a
// bounded range and a congruence: AND-masks, right shifts, divides).
const (
	drvNone uint8 = iota
	drvAnd
	drvShr
	drvDiv
)

// congOfExpr evaluates an affine expression's congruence over the
// per-symbol congruence table. ok is false while the expression
// references a symbol the solver has not valued yet.
func (a *analyzer) congOfExpr(e Expr, table []cong, set []bool) (cong, bool) {
	if e.top {
		return congTop(), true
	}
	acc := congConst(uint64(e.c))
	for _, t := range e.terms {
		s := int(t.sym)
		var sc cong
		switch {
		case s < int(symFirstPhi):
			sc = congTop() // thread coordinates range over contiguous ids
		case s < len(table) && set[s]:
			sc = table[s]
		default:
			return congTop(), false
		}
		acc = acc.add(sc.scale(uint64(t.coef)))
	}
	return acc, true
}

// drvTransfer applies a derived symbol's operation to its source
// congruence.
func drvTransfer(kind uint8, param int64, src cong) cong {
	switch kind {
	case drvAnd:
		return src.maskLow(uint64(param))
	case drvShr:
		return src.shr(uint64(param) & 63)
	case drvDiv:
		d := uint64(param)
		if d != 0 && d&(d-1) == 0 {
			// Power-of-two divide of a non-negative value is a shift.
			return src.shr(uint64(bits.TrailingZeros64(d)))
		}
		return congTop()
	}
	return congTop()
}

// solveCong computes the congruence of every φ and derived symbol by
// Kleene iteration from the recorded input expressions. φ inputs can
// reference other φs (loop-carried counters), so the system is solved
// to a fixpoint; joins are monotone over finite power-of-two divisor
// chains, so it terminates in at most ~64 coarsenings per symbol.
func (a *analyzer) solveCong() {
	n := len(a.syms)
	a.symCong = make([]cong, n)
	set := make([]bool, n)
	for s := 0; s < int(symFirstPhi) && s < n; s++ {
		a.symCong[s] = congTop()
		set[s] = true
	}
	for round := 0; round < 66; round++ {
		changed := false
		for s := int(symFirstPhi); s < n; s++ {
			var nv cong
			have := false
			if a.symIn[s].over {
				nv, have = congTop(), true
			} else {
				for _, e := range a.symIn[s].exprs {
					c, ok := a.congOfExpr(e, a.symCong, set)
					if !ok {
						continue
					}
					if kind := a.symIn[s].kind; kind != drvNone {
						c = drvTransfer(kind, a.symIn[s].param, c)
					}
					if !have {
						nv, have = c, true
					} else {
						nv = nv.join(c)
					}
				}
			}
			if !have {
				continue
			}
			if set[s] {
				nv = a.symCong[s].join(nv)
			}
			if !set[s] || nv != a.symCong[s] {
				a.symCong[s] = nv
				set[s] = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for s := int(symFirstPhi); s < n; s++ {
		if !set[s] {
			a.symCong[s] = congTop()
		}
	}
}

// congOf is the post-solve congruence of one symbol.
func (a *analyzer) congOf(s symID) cong {
	if int(s) < len(a.symCong) {
		return a.symCong[s]
	}
	return congTop()
}

// symInputs records where a φ or derived symbol's values come from:
// the joined input expressions (φ) or the operation source (derived,
// with kind/param naming the operation). Deduplicated and capped —
// past the cap the symbol is pessimized to top.
type symInputs struct {
	exprs []Expr
	kind  uint8
	param int64
	over  bool
}

const maxSymInputs = 16

func (si *symInputs) record(e Expr) {
	if si.over {
		return
	}
	for _, x := range si.exprs {
		if x.equal(e) {
			return
		}
	}
	if len(si.exprs) >= maxSymInputs {
		si.over = true
		si.exprs = nil
		return
	}
	si.exprs = append(si.exprs, e)
}
