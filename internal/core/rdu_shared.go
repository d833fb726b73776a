package core

import (
	"haccrg/internal/fault"
	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// sharedRDU runs the shared-memory Race Detection Unit for one warp
// instruction: the Figure 3 happens-before state machine over the
// block's shadow entries, with warp-aware reporting.
//
// In hardware mode the checks are free (parallel comparators beside
// the banks); the returned stall is non-zero only in the
// shared-shadow-in-global configuration of Figure 8, where shadow
// entries must be fetched from device memory through the L1.
func (d *Detector) sharedRDU(ev *gpu.WarpMemEvent) int64 {
	gran := uint64(d.opt.SharedGranularity)

	// Statically-proven race-free site: skip every check. In hardware
	// mode the checks are the only work, so the event is free; in the
	// Figure 8 configuration the shadow-line fetches below still run —
	// the hardware would still move the shadow lines — so cycle counts
	// are identical with the filter on or off.
	filtered := d.pcFiltered(ev.PC)
	if filtered && !d.opt.SharedShadowInGlobal {
		d.stats.FilteredChecks += int64(len(ev.Lanes))
		return 0
	}

	shadow := d.sharedShadow[ev.SM]

	// Intra-warp WAW: two lanes of this instruction writing the same
	// byte address, checked before the request issues.
	if !filtered && (ev.Write || ev.Atomic) {
		d.intraWarpWAW(ev, isa.SpaceShared, gran)
	}

	inGlobal := d.opt.SharedShadowInGlobal
	shadowLines := d.scratch.lines[:0]

	for i := range ev.Lanes {
		la := &ev.Lanes[i]
		if filtered {
			// Fig. 8 mode: collect the shadow lines (timing) but skip
			// the check. The filter is inert under fault plans, so the
			// admit/quarantine hooks below cannot be reached filtered.
			d.stats.FilteredChecks++
			g := la.Addr / gran
			if g < uint64(len(shadow)) {
				entryAddr := d.sharedSlotAddr(ev.SM, g)
				shadowLines = insertLine(shadowLines, entryAddr&^uint64(d.env.Config().SegmentBytes-1))
			}
			continue
		}
		if d.inj != nil && !d.admit(fault.UnitShared, ev.SM, ev.Cycle) {
			continue // check-queue overflow: dropped, counted, access unaffected
		}
		d.stats.SharedChecks++
		g := la.Addr / gran
		if g >= uint64(len(shadow)) {
			continue // engine bounds-checks; stay safe
		}
		if inGlobal {
			entryAddr := d.sharedSlotAddr(ev.SM, g)
			shadowLines = insertLine(shadowLines, entryAddr&^uint64(d.env.Config().SegmentBytes-1))
		}
		if ev.Atomic {
			continue // atomics are synchronization operations
		}
		if d.inj != nil && d.faultShared(ev.SM, shadow, g) {
			continue // cell quarantined by the degradation policy
		}
		nw, kind, first, raced := d.sharedCheckWord(shadow[g], uint16(la.Tid), ev.Write)
		shadow[g] = nw
		if raced {
			d.report(isa.SpaceShared, kind, CatBarrier, ev.PC, ev.Stmt, g, la.Addr,
				int(first), ev.Block, la.Tid, ev.Block, ev.Cycle)
		}
	}

	d.scratch.lines = shadowLines
	if !inGlobal {
		return 0
	}
	// Figure 8 mode: fetch every distinct shadow line through the
	// demand path before the check can run — the warp waits on the
	// reads, while the updates write through without blocking (GPU
	// stores are fire-and-forget). Sorted order keeps the L1/partition
	// state — and hence cycle counts — deterministic.
	var done int64 = ev.Cycle
	for _, line := range shadowLines {
		start := ev.Cycle
		if d.inj != nil {
			start = d.spiked(fault.UnitShared, ev.SM, start)
		}
		t := d.env.InstrTx(ev.SM, start, line, false)
		d.stats.ShadowReads++
		d.env.InstrTx(ev.SM, t, line, true)
		d.stats.ShadowWrites++
		if t > done {
			done = t
		}
	}
	return done - ev.Cycle
}

// intraWarpWAW reports same-address writes by different lanes of one
// warp instruction. Exact-address comparison avoids granularity
// artifacts: lanes writing adjacent words are implicitly ordered by
// SIMD execution even when they share a shadow granule.
func (d *Detector) intraWarpWAW(ev *gpu.WarpMemEvent, space isa.Space, gran uint64) {
	if len(ev.Lanes) < 2 {
		return
	}
	// Coalesced stores put the lanes in strictly increasing address
	// order — all distinct, nothing to report. One linear pass settles
	// that without the quadratic dup scan below.
	mono := true
	for i := 1; i < len(ev.Lanes); i++ {
		if ev.Lanes[i].Addr <= ev.Lanes[i-1].Addr {
			mono = false
			break
		}
	}
	if mono {
		return
	}
	// At most WarpSize lanes per instruction: a linear scan over a
	// reused buffer replaces the per-event map allocation.
	seen := d.scratch.seen[:0]
	for i := range ev.Lanes {
		la := &ev.Lanes[i]
		first, dup := 0, false
		for j := range seen {
			if seen[j].addr == la.Addr {
				first, dup = seen[j].tid, true
				break
			}
		}
		if dup {
			if ev.Atomic {
				continue // atomics to the same address serialize
			}
			d.report(space, KindWAW, CatIntraWarp, ev.PC, ev.Stmt, la.Addr/gran, la.Addr,
				first, ev.Block, la.Tid, ev.Block, ev.Cycle)
			continue
		}
		seen = append(seen, laneAddr{addr: la.Addr, tid: la.Tid})
	}
	d.scratch.seen = seen
}
