package core

import (
	"testing"

	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// benchEnv is a minimal gpu.Env: fixed-latency memory, no queueing.
// The RDU micro-benchmarks isolate the detector's own per-access cost
// (shadow lookup, state machine, scratch management) from the timing
// model, so allocs/op here is exactly the hot-path churn the paged
// shadow and scratch buffers are meant to eliminate.
type benchEnv struct{ cfg *gpu.Config }

func (e *benchEnv) Config() *gpu.Config { return e.cfg }
func (e *benchEnv) ShadowTx(part int, cycle int64, addr uint64, write bool) int64 {
	return cycle + 40
}
func (e *benchEnv) InstrTx(sm int, cycle int64, addr uint64, write bool) int64 {
	return cycle + 100
}
func (e *benchEnv) InstrAtomicTx(sm int, cycle int64, addr uint64) int64 {
	return cycle + 120
}
func (e *benchEnv) CurrentFenceID(block, w int) uint32 { return 1 }
func (e *benchEnv) GlobalMemSize() uint64              { return 1 << 26 }

// benchDetector builds a detector with static filter f (nil = none)
// attached to the stub env.
func benchDetector(tb testing.TB, opt Options, f StaticFilter) *Detector {
	tb.Helper()
	d, err := New(opt)
	if err != nil {
		tb.Fatal(err)
	}
	d.SetStaticFilter(f)
	cfg := gpu.TestConfig()
	d.KernelStart(&benchEnv{cfg: &cfg}, "bench")
	return d
}

// warpEvent builds a race-free full-warp access: each lane stays on
// its own granule, so the detector exercises claim/refresh without
// materializing race records (which would dominate allocs).
func warpEvent(space isa.Space, write bool, lanes int, base uint64, stride uint64) *gpu.WarpMemEvent {
	ev := &gpu.WarpMemEvent{
		Space: space, Write: write,
		PC: 4, SM: 0, Block: 0, Kernel: "bench",
		SyncID: 1, FenceID: 1, Cycle: 100,
		Lanes: make([]gpu.LaneAccess, lanes),
	}
	for l := 0; l < lanes; l++ {
		ev.Lanes[l] = gpu.LaneAccess{
			Lane: l, Tid: l, GTid: l,
			Addr: base + uint64(l)*stride, Size: 4,
			Arrival: 100,
		}
	}
	return ev
}

// rduHotCase is one steady-state detector workload: a race-free
// full-warp event whose lanes sweep a fixed working set, one warp
// width of words per step.
type rduHotCase struct {
	name       string
	space      isa.Space
	write      bool
	filtered   bool   // the site is statically proven race-free
	workingSet uint64 // bytes swept; the step's base wraps modulo it
	// warm claims the whole working set before timing: first touch of
	// the global shadow allocates its pages, so the steady state is the
	// refresh path.
	warm bool
}

const rduHotLanes = 32

var rduHotCases = []rduHotCase{
	{name: "global-write", space: isa.SpaceGlobal, write: true, workingSet: 1 << 16, warm: true},
	{name: "global-read", space: isa.SpaceGlobal, workingSet: 1 << 16, warm: true},
	{name: "shared-write", space: isa.SpaceShared, write: true, workingSet: 1 << 12},
	// Filtered variants: the same event streams with the site
	// statically proven race-free. The gap against the unfiltered runs
	// is exactly the check work the static filter saves; shadow traffic
	// still runs on the global path (the timing model is preserved).
	{name: "global-write-filtered", space: isa.SpaceGlobal, write: true, filtered: true, workingSet: 1 << 16},
	{name: "shared-write-filtered", space: isa.SpaceShared, write: true, filtered: true, workingSet: 1 << 12},
}

// rduHotRig is a detector on the stub env with the case's event.
type rduHotRig struct {
	c  rduHotCase
	d  *Detector
	ev *gpu.WarpMemEvent
}

func newRDUHotRig(tb testing.TB, c rduHotCase) *rduHotRig {
	var f StaticFilter
	if c.filtered {
		mask := make([]bool, 8)
		mask[4] = true // warpEvent PCs
		f = maskFilter{"bench": mask}
	}
	return &rduHotRig{c: c, d: benchDetector(tb, DefaultOptions(), f), ev: warpEvent(c.space, c.write, rduHotLanes, 0, 4)}
}

// steps is how many steps sweep the working set once.
func (r *rduHotRig) steps() int { return int(r.c.workingSet / (rduHotLanes * 4)) }

// step presents the i-th event of the sweep.
func (r *rduHotRig) step(i int) {
	base := uint64(i*rduHotLanes*4) % r.c.workingSet
	for l := range r.ev.Lanes {
		r.ev.Lanes[l].Addr = base + uint64(l)*4
	}
	r.d.WarpMem(r.ev)
}

// checkFilter fails unless the filtered cases skipped every check.
func (r *rduHotRig) checkFilter(tb testing.TB) {
	st := r.d.Stats()
	checks := st.GlobalChecks
	if r.c.space == isa.SpaceShared {
		checks = st.SharedChecks
	}
	if r.c.filtered && (checks != 0 || st.FilteredChecks == 0) {
		tb.Fatalf("filter not engaged: checks=%d filtered=%d", checks, st.FilteredChecks)
	}
}

// BenchmarkRDUHotPath measures the per-warp-instruction detector cost
// on the global and shared RDU paths. The interesting number is
// allocs/op: the steady state must not allocate, which
// TestRDUHotPathAllocFree enforces.
func BenchmarkRDUHotPath(b *testing.B) {
	for _, c := range rduHotCases {
		b.Run(c.name, func(b *testing.B) {
			r := newRDUHotRig(b, c)
			if c.warm {
				for i := 0; i < r.steps(); i++ {
					r.step(i)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.step(i)
			}
			b.StopTimer()
			r.checkFilter(b)
		})
	}
}

// TestRDUHotPathAllocFree: once the working set is claimed, every
// detector call of a whole sweep over it allocates nothing.
func TestRDUHotPathAllocFree(t *testing.T) {
	for _, c := range rduHotCases {
		t.Run(c.name, func(t *testing.T) {
			r := newRDUHotRig(t, c)
			for i := 0; i < r.steps(); i++ {
				r.step(i)
			}
			i := 0
			if n := testing.AllocsPerRun(r.steps(), func() { r.step(i); i++ }); n != 0 {
				t.Errorf("%v allocs per warp event, want 0", n)
			}
			r.checkFilter(t)
		})
	}
}

// BenchmarkGlobalShadow measures the shadow structure itself:
// steady-state lookup/claim over a fixed working set, plus the
// per-kernel wipe. The paged flat array must be allocation-free once
// its pages exist.
func BenchmarkGlobalShadow(b *testing.B) {
	b.Run("lookup-claim", func(b *testing.B) {
		var s pagedShadow
		const granules = 1 << 16
		for g := uint64(0); g < granules; g++ {
			e := s.entry(g)
			e.meta |= gwPresent
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A deterministic stride that wanders the whole set.
			g := uint64(i*2654435761) % granules
			e := s.lookup(g)
			if e == nil {
				b.Fatal("present entry not found")
			}
			e.meta = e.meta&^gwTidField | uint64(uint16(i))<<gwTid
		}
	})
	b.Run("kernel-reset", func(b *testing.B) {
		var s pagedShadow
		const granules = 1 << 16
		for g := uint64(0); g < granules; g++ {
			s.entry(g).meta |= gwPresent
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.reset()
		}
	})
	b.Run("first-touch", func(b *testing.B) {
		// Cold claims: page allocation amortized over a page of claims.
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var s pagedShadow
			for g := uint64(0); g < shadowPageLen; g++ {
				s.entry(g).meta |= gwPresent
			}
		}
	})
}

// legacySharedEntry is the pre-packing struct encoding of a shared
// shadow entry, kept here (test-only) as the baseline for the packed
// word's speedup claim. The logic below is the old field-wise Figure 3
// state machine, verbatim — including the division-based same-warp
// test the old hot path paid on every non-fresh check.
type legacySharedEntry struct {
	fresh    bool
	modified bool
	shared   bool
	tid      uint16
}

func legacySharedCheck(e *legacySharedEntry, tid uint16, write bool, warpSize int) (kind Kind, first uint16, raced bool) {
	if e.fresh {
		e.fresh = false
		e.shared = false
		e.modified = write
		e.tid = tid
		return 0, 0, false
	}
	sameThread := e.tid == tid
	sameWarp := int(e.tid)/warpSize == int(tid)/warpSize
	switch {
	case !e.modified && !e.shared:
		if !write {
			if !sameThread && !sameWarp {
				e.shared = true
			}
			return 0, 0, false
		}
		if sameThread || sameWarp {
			e.modified = true
			e.tid = tid
			return 0, 0, false
		}
		first := e.tid
		e.tid, e.modified = tid, true
		return KindWAR, first, true
	case e.modified && !e.shared:
		if sameThread || sameWarp {
			if write {
				e.tid = tid
			}
			return 0, 0, false
		}
		first := e.tid
		if write {
			e.tid = tid
			return KindWAW, first, true
		}
		return KindRAW, first, true
	default:
		if !write {
			return 0, 0, false
		}
		first := e.tid
		e.tid, e.modified, e.shared = tid, true, false
		return KindWAR, first, true
	}
}

// BenchmarkSharedEntryEncoding isolates the shared-memory hot-path
// check — the M/S/tid state machine — against the two encodings: the
// old struct-of-bools shadow and the packed 12-bit word. Same access
// stream (alternating writers over a 4K-granule tile, so every check
// takes the report-free WAW-refresh and claim paths), zero allocs/op
// required of both; the packed word's margin is the tentpole's ≥1.3x
// claim.
func BenchmarkSharedEntryEncoding(b *testing.B) {
	const granules = 1 << 12
	b.Run("struct", func(b *testing.B) {
		shadow := make([]legacySharedEntry, granules)
		for g := range shadow {
			shadow[g] = legacySharedEntry{fresh: true}
		}
		// The warp size is loaded from the detector exactly as the old
		// hot path loaded it — a runtime value, so the baseline pays the
		// genuine division, not a constant-folded shift.
		warpSize := benchDetector(b, DefaultOptions(), nil).warpSize
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := i & (granules - 1)
			_, _, _ = legacySharedCheck(&shadow[g], uint16(i&1), i&1 == 0, warpSize)
		}
	})
	b.Run("packed", func(b *testing.B) {
		d := benchDetector(b, DefaultOptions(), nil)
		shadow := make([]sharedWord, granules)
		resetShared(shadow)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := i & (granules - 1)
			nw, _, _, _ := d.sharedCheckWord(shadow[g], uint16(i&1), i&1 == 0)
			shadow[g] = nw
		}
	})
}
