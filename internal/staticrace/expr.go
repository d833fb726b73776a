package staticrace

import "math"

// symID names a symbolic value the affine domain ranges over. The
// fixed symbols are the thread coordinates; everything above
// symFirstPhi is a φ-symbol the interpreter mints at control-flow
// joins (loop counters, if/else merges, weak updates).
type symID int32

// Fixed symbols. Block dimension, grid dimension and kernel parameters
// are *not* symbols: the analyzer consumes a launched gpu.Kernel, so
// they are concrete constants.
const (
	SymTid  symID = iota // thread id within its block
	SymBid               // block id within the grid
	SymLane              // lane within the warp (tid mod warpSize)
	SymWarp              // warp within the block (tid div warpSize)
	symFirstPhi
)

// Interval bounds. The sentinels mean "unbounded"; interval arithmetic
// saturates into them instead of wrapping.
const (
	negInf = math.MinInt64
	posInf = math.MaxInt64
)

// ival is an inclusive signed interval.
type ival struct{ lo, hi int64 }

func (v ival) empty() bool           { return v.lo > v.hi }
func (v ival) bounded() bool         { return v.lo != negInf && v.hi != posInf }
func (v ival) contains(x int64) bool { return x >= v.lo && x <= v.hi }

func (v ival) union(o ival) ival {
	if v.empty() {
		return o
	}
	if o.empty() {
		return v
	}
	if o.lo < v.lo {
		v.lo = o.lo
	}
	if o.hi > v.hi {
		v.hi = o.hi
	}
	return v
}

func (v ival) intersect(o ival) ival {
	if o.lo > v.lo {
		v.lo = o.lo
	}
	if o.hi < v.hi {
		v.hi = o.hi
	}
	return v
}

// addSat / mulSat are saturating interval helpers for bound
// arithmetic: once a bound leaves the representable range it pins to
// the matching infinity, which the analyzer treats as "unbounded".
func addSat(a, b int64) int64 {
	if a == negInf || b == negInf {
		return negInf
	}
	if a == posInf || b == posInf {
		return posInf
	}
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		if b > 0 {
			return posInf
		}
		return negInf
	}
	return s
}

func mulSat(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	neg := (a < 0) != (b < 0)
	if a == negInf || a == posInf || b == negInf || b == posInf {
		if neg {
			return negInf
		}
		return posInf
	}
	p := a * b
	if p/b != a {
		if neg {
			return negInf
		}
		return posInf
	}
	return p
}

// ivalAdd returns the interval sum.
func ivalAdd(a, b ival) ival {
	return ival{addSat(a.lo, b.lo), addSat(a.hi, b.hi)}
}

// ivalScale multiplies an interval by a constant.
func ivalScale(a ival, k int64) ival {
	x, y := mulSat(a.lo, k), mulSat(a.hi, k)
	if x > y {
		x, y = y, x
	}
	return ival{x, y}
}

// mulOvf multiplies two constants, reporting overflow instead of
// wrapping (wrapped coefficients would silently corrupt footprints).
func mulOvf(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// term is one symbol with its coefficient.
type term struct {
	sym  symID
	coef int64
}

// Expr is an abstract register value: either an affine combination
// c + Σ coefᵢ·symᵢ (terms sorted by symbol, no zero coefficients), or
// Top (statically unknown). The zero value is the constant 0 — exactly
// the executor's register-file reset state.
type Expr struct {
	top   bool
	c     int64
	terms []term
}

func exprTop() Expr          { return Expr{top: true} }
func exprConst(c int64) Expr { return Expr{c: c} }
func exprSym(s symID) Expr   { return Expr{terms: []term{{sym: s, coef: 1}}} }

// Const returns the constant value and whether the expression is one.
func (e Expr) Const() (int64, bool) {
	if e.top || len(e.terms) != 0 {
		return 0, false
	}
	return e.c, true
}

// singleTerm returns (sym, coef, const) when the expression is
// k·sym + c with exactly one symbol.
func (e Expr) singleTerm() (symID, int64, int64, bool) {
	if e.top || len(e.terms) != 1 {
		return 0, 0, 0, false
	}
	return e.terms[0].sym, e.terms[0].coef, e.c, true
}

// termCoef returns the coefficient of sym (0 when absent).
func (e Expr) termCoef(s symID) int64 {
	for _, t := range e.terms {
		if t.sym == s {
			return t.coef
		}
	}
	return 0
}

// hasSym reports whether sym appears with a nonzero coefficient.
func (e Expr) hasSym(s symID) bool {
	for _, t := range e.terms {
		if t.sym == s {
			return true
		}
	}
	return false
}

func (e Expr) equal(o Expr) bool {
	if e.top != o.top {
		return false
	}
	if e.top {
		return true
	}
	if e.c != o.c || len(e.terms) != len(o.terms) {
		return false
	}
	for i := range e.terms {
		if e.terms[i] != o.terms[i] {
			return false
		}
	}
	return true
}

// add returns e + o (Top-absorbing, overflow-checked).
func (e Expr) add(o Expr) Expr {
	if e.top || o.top {
		return exprTop()
	}
	out := Expr{}
	var ok bool
	if out.c, ok = addOvf(e.c, o.c); !ok {
		return exprTop()
	}
	i, j := 0, 0
	for i < len(e.terms) || j < len(o.terms) {
		switch {
		case j >= len(o.terms) || (i < len(e.terms) && e.terms[i].sym < o.terms[j].sym):
			out.terms = append(out.terms, e.terms[i])
			i++
		case i >= len(e.terms) || o.terms[j].sym < e.terms[i].sym:
			out.terms = append(out.terms, o.terms[j])
			j++
		default:
			c, ok := addOvf(e.terms[i].coef, o.terms[j].coef)
			if !ok {
				return exprTop()
			}
			if c != 0 {
				out.terms = append(out.terms, term{sym: e.terms[i].sym, coef: c})
			}
			i++
			j++
		}
	}
	return out
}

func addOvf(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

// neg returns -e.
func (e Expr) neg() Expr { return e.scale(-1) }

// sub returns e - o.
func (e Expr) sub(o Expr) Expr { return e.add(o.neg()) }

// scale returns k·e.
func (e Expr) scale(k int64) Expr {
	if e.top {
		return exprTop()
	}
	if k == 0 {
		return exprConst(0)
	}
	out := Expr{}
	var ok bool
	if out.c, ok = mulOvf(e.c, k); !ok {
		return exprTop()
	}
	for _, t := range e.terms {
		c, ok := mulOvf(t.coef, k)
		if !ok {
			return exprTop()
		}
		out.terms = append(out.terms, term{sym: t.sym, coef: c})
	}
	return out
}

// addConst returns e + k.
func (e Expr) addConst(k int64) Expr { return e.add(exprConst(k)) }
