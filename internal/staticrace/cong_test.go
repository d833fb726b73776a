package staticrace

import (
	"math/rand"
	"testing"

	"haccrg/internal/gpu"
	"haccrg/internal/isa"
	"haccrg/internal/kernels"
)

// contains reports whether the concrete value v is a member: the
// oracle of the congruence soundness tests.
func (c cong) contains(v uint64) bool {
	switch c.mod {
	case 0:
		return v == c.off
	case 1:
		return true
	}
	return v&(c.mod-1) == c.off&(c.mod-1)
}

// randCong returns a random congruence that contains v: the exact
// constant, top, or v modulo a random power of two.
func randCong(r *rand.Rand, v uint64) cong {
	switch r.Intn(4) {
	case 0:
		return congConst(v)
	case 1:
		return congTop()
	}
	k := uint(1 + r.Intn(63))
	m := uint64(1) << k
	return cong{mod: m, off: v & (m - 1)}
}

// sample returns concrete members of c, spread across the value space.
func sample(r *rand.Rand, c cong, n int) []uint64 {
	if c.isConst() {
		return []uint64{c.off}
	}
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		v := r.Uint64()
		if !c.isTop() {
			v = (v &^ (c.mod - 1)) | (c.off & (c.mod - 1))
		}
		out = append(out, v)
	}
	return out
}

// TestCongJoinUpperBound: join is an upper bound of both operands —
// every member of either side stays a member of the join — and obeys
// the lattice laws (idempotent, commutative, top-absorbing).
func TestCongJoinUpperBound(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		x, y := randCong(r, r.Uint64()), randCong(r, r.Uint64())
		j := x.join(y)
		for _, v := range sample(r, x, 8) {
			if !j.contains(v) {
				t.Fatalf("join dropped member: %+v ∨ %+v = %+v misses %d from x", x, y, j, v)
			}
		}
		for _, v := range sample(r, y, 8) {
			if !j.contains(v) {
				t.Fatalf("join dropped member: %+v ∨ %+v = %+v misses %d from y", x, y, j, v)
			}
		}
		if x.join(x) != x {
			t.Fatalf("join not idempotent: %+v", x)
		}
		if j != y.join(x) {
			t.Fatalf("join not commutative: %+v ∨ %+v", x, y)
		}
		if !x.join(congTop()).isTop() {
			t.Fatalf("top not absorbing under join: %+v", x)
		}
	}
}

// TestCongJoinWidens: join doubles as the widening — along any chain
// of repeated joins the abstract value can only coarsen, and it
// changes at most ~65 times (the power-of-two divisor chain height),
// which is the termination argument solveCong relies on.
func TestCongJoinWidens(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		acc := randCong(r, r.Uint64())
		changes := 0
		for i := 0; i < 500; i++ {
			prev := acc
			acc = acc.join(randCong(r, r.Uint64()))
			// Monotone: everything the old value admitted survives.
			for _, v := range sample(r, prev, 4) {
				if !acc.contains(v) {
					t.Fatalf("widening lost member %d: %+v → %+v", v, prev, acc)
				}
			}
			if acc != prev {
				changes++
			}
		}
		if changes > 65 {
			t.Fatalf("join chain changed %d times; divisor chains bound it by 65", changes)
		}
	}
}

// TestCongTransferSoundness: each transfer function over-approximates
// the concrete operation. For random concrete inputs wrapped in random
// congruences that contain them, the abstract result must contain the
// concrete result — including under uint64 wrap-around.
func TestCongTransferSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for i := 0; i < 20000; i++ {
		v, w := r.Uint64(), r.Uint64()
		cv, cw := randCong(r, v), randCong(r, w)
		if !cv.contains(v) || !cw.contains(w) {
			t.Fatalf("randCong broke containment: %+v %d / %+v %d", cv, v, cw, w)
		}
		if got := cv.add(cw); !got.contains(v + w) {
			t.Fatalf("add unsound: %+v + %+v = %+v misses %d", cv, cw, got, v+w)
		}
		k := r.Uint64()
		if got := cv.scale(k); !got.contains(v * k) {
			t.Fatalf("scale unsound: %+v · %d = %+v misses %d", cv, k, got, v*k)
		}
		mask := r.Uint64()
		if r.Intn(2) == 0 {
			mask = 1<<uint(r.Intn(64)) - 1 // low-bit mask half the time
		}
		if got := cv.maskLow(mask); !got.contains(v & mask) {
			t.Fatalf("maskLow unsound: %+v & %#x = %+v misses %d", cv, mask, got, v&mask)
		}
		s := uint64(r.Intn(64))
		if got := cv.shr(s); !got.contains(v >> s) {
			t.Fatalf("shr unsound: %+v >> %d = %+v misses %d", cv, s, got, v>>s)
		}
	}
}

// TestCongStepEnumeratesIntersection: congStep's (start, step, count)
// progression is exactly the members of range ∩ congruence, checked
// against brute-force enumeration on small ranges.
func TestCongStepEnumeratesIntersection(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		lo := int64(r.Intn(4000) - 1000)
		rg := ival{lo, lo + int64(r.Intn(600))}
		var c cong
		switch r.Intn(3) {
		case 0:
			c = congConst(uint64(lo + int64(r.Intn(1200)) - 300))
		case 1:
			c = congTop()
		default:
			m := uint64(1) << uint(1+r.Intn(8))
			c = cong{mod: m, off: r.Uint64() & (m - 1)}
		}
		var want []int64
		for v := rg.lo; v <= rg.hi; v++ {
			if c.contains(uint64(v)) {
				want = append(want, v)
			}
		}
		start, step, count := congStep(rg, c)
		if count != int64(len(want)) {
			t.Fatalf("congStep(%+v, %+v) count = %d, brute force %d", rg, c, count, len(want))
		}
		for j := int64(0); j < count; j++ {
			if got := start + j*step; got != want[j] {
				t.Fatalf("congStep(%+v, %+v) member %d = %d, brute force %d", rg, c, j, got, want[j])
			}
		}
	}
}

// TestStrideCollapseOnFixtures: with the footprint point budget
// crushed to 1, no site can enumerate — but pure tid-strided shared
// stores in the defective fixtures must still collapse to the analytic
// strided form and classify private, rather than poisoning the space
// to unknown. The budget bounds work, not precision, on these shapes.
func TestStrideCollapseOnFixtures(t *testing.T) {
	for _, name := range []string{"baddiv", "badoob"} {
		name := name
		t.Run(name, func(t *testing.T) {
			bm := kernels.Get(name)
			if bm == nil {
				t.Fatalf("unknown fixture %q", name)
			}
			cfg := gpu.TestConfig()
			dev, err := gpu.NewDevice(cfg, bm.GlobalBytes(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := bm.Build(dev, kernels.Params{})
			if err != nil {
				t.Fatal(err)
			}
			conf := Config{WarpSize: 32, SharedGranularity: 4, GlobalGranularity: 4,
				MaxFootprintPoints: 1}
			for _, k := range plan.Kernels {
				res, err := Analyze(k, conf)
				if err != nil {
					t.Fatalf("kernel %s: %v", k.Name, err)
				}
				stores := 0
				for _, s := range res.Sites {
					if s.Space != isa.SpaceShared.String() || s.Op != "st" || s.Dead {
						continue
					}
					stores++
					if s.Class != ClassPrivate {
						t.Errorf("kernel %s pc %d: shared St classified %q under budget 1, want %q",
							k.Name, s.PC, s.Class, ClassPrivate)
					}
				}
				if stores == 0 {
					t.Errorf("kernel %s: no live shared St sites found", k.Name)
				}
			}
		})
	}
}
