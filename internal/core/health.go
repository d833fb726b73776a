package core

import (
	"math/bits"

	"haccrg/internal/bloom"
	"haccrg/internal/fault"
	"haccrg/internal/gpu"
)

// This file is the detector side of the fault-injection subsystem: it
// applies an internal/fault plan to the RDU pipeline (queue admission,
// shadow-cell corruption, signature saturation, fetch-latency spikes)
// and keeps the DetectorHealth accounting that makes the degradation
// visible instead of silent.
//
// Invariant relied on by the harness property test: every code path
// that can perturb detection results increments at least one health
// counter, so findings can only diverge from a fault-free run when
// Health().Degraded is true. ECC-corrected flips are the one
// non-perturbing event and are counted separately.

// Health implements gpu.HealthReporter. Counters accumulate across the
// detector's launches until Reset.
func (d *Detector) Health() *gpu.DetectorHealth {
	h := d.health
	// Dropped checks never reached the RDU, so they are not in the
	// check counters; the exposure denominator is demand, not service.
	h.TotalChecks = d.stats.SharedChecks + d.stats.GlobalChecks + h.DroppedChecks
	if d.fillN > 0 {
		h.BloomFillPct = 100 * float64(d.fillBits) / (float64(d.bloom.SizeBits) * float64(d.fillN))
	}
	h.Degraded = h.DroppedChecks|h.InjectedFlips|h.StuckReads|
		h.QuarantinedGranules|h.QuarantineSkips|h.ReinitGranules|
		h.SaturatedSigs|h.LatencySpikes != 0
	return &h
}

// resetFaultState restores the injector, quarantine sets and health
// accounting to a just-constructed detector's (used by Reset for
// reproducible reruns).
func (d *Detector) resetFaultState() {
	d.inj = fault.New(d.opt.Fault, d.opt.FaultSeed)
	d.health = gpu.DetectorHealth{}
	d.gquar, d.squar = nil, nil
	d.fillBits, d.fillN = 0, 0
}

// spiked returns cycle plus any injected shadow-fetch latency spike at
// the given unit (a memory partition's RDU or an SM's demand path).
func (d *Detector) spiked(unit fault.Unit, id int, cycle int64) int64 {
	if extra := d.inj.SpikeDelay(unit, id); extra > 0 {
		d.health.LatencySpikes++
		return cycle + extra
	}
	return cycle
}

// flipGlobalEntry flips one bit of the architectural 52-bit entry
// layout (see packed.go's arch* constants): [0]=M, [1]=S, [2..11]=tid,
// [12..23]=bid, [24..28]=sid, [29..38]=sync ID, [39..48]=fence ID,
// [49..51]=atomic-ID low bits. The architectural bit index is mapped
// onto whichever packed word holds that field.
func flipGlobalEntry(e *packedGlobal, bit int) {
	switch {
	case bit == 0:
		e.meta ^= gwM
	case bit == 1:
		e.meta ^= gwS
	case bit < archBidShift:
		e.meta ^= 1 << (gwTid + bit - archTidShift)
	case bit < archSidShift:
		e.meta ^= 1 << (gwBid + bit - archBidShift)
	case bit < archSyncShift:
		e.meta ^= 1 << (gwSid + bit - archSidShift)
	case bit < archFenceShift:
		e.sync ^= 1 << (bit - archSyncShift)
	case bit < archSigShift:
		e.sync ^= 1 << (32 + bit - archFenceShift)
	default:
		e.sig ^= 1 << (bit - archSigShift)
	}
}

// stuckGlobalEntry overwrites the entry's architectural fields with the
// cell's stuck-at pattern (the lockset signature and the simulator-side
// wcyc bookkeeping are outside the modeled 52-bit word; the present
// bit is simulator-side too and survives).
func stuckGlobalEntry(e *packedGlobal, pat uint64) {
	e.meta = e.meta&^(gwM|gwS|gwTidField|gwBidField|gwSidField) |
		pat&(gwM|gwS) |
		(pat>>archTidShift)&(1<<archTidBits-1)<<gwTid |
		(pat>>archBidShift)&(1<<archBidBits-1)<<gwBid |
		(pat>>archSidShift)&(1<<archSidBits-1)<<gwSid
	e.sync = packSync(
		uint32(pat>>archSyncShift)&(1<<archSyncBits-1),
		uint32(pat>>archFenceShift)&(1<<archFenceBits-1))
}

// admit runs one lane check through the check queue of RDU id (a
// partition's global unit or an SM's shared unit); false means the
// queue overflowed and the check is dropped (and counted).
func (d *Detector) admit(unit fault.Unit, id int, cycle int64) bool {
	if d.inj.Admit(unit, id, cycle, 1) == 1 {
		return true
	}
	d.health.DroppedChecks++
	return false
}

// saturate returns a lane's lockset signature, possibly saturated by
// the injector. Pure — the caller-owned lane is never mutated, so the
// recorded journal always carries the original signature.
func (d *Detector) saturate(part int, sig bloom.Sig, inCrit bool) bloom.Sig {
	if !inCrit {
		return sig
	}
	if sat, changed := d.inj.Saturate(fault.UnitGlobal, part, uint64(sig), uint64(d.bloom.Mask())); changed {
		d.health.SaturatedSigs++
		return bloom.Sig(sat)
	}
	return sig
}

// observeFill accumulates the fill of the signatures a lockset check
// compares. Summed popcounts instead of summed ratios keep the
// accumulation exact.
func (d *Detector) observeFill(sigs ...bloom.Sig) {
	for _, s := range sigs {
		if s == 0 {
			continue // null set: the signature is not in use
		}
		d.fillBits += int64(bits.OnesCount64(uint64(s)))
		d.fillN++
	}
}

// faultGlobal applies shadow-cell faults to granule g before its check
// runs; true means the check is skipped.
func (d *Detector) faultGlobal(part int, g uint64) (skip bool) {
	if _, q := d.gquar[g]; q {
		d.health.QuarantineSkips++
		return true
	}
	if pat, stuck := d.inj.Stuck(fault.UnitGlobal, g); stuck {
		if d.inj.ECC() {
			if d.opt.Degradation == DegradeReinit {
				d.gshadow.clear(g)
				d.health.ReinitGranules++
				return false
			}
			d.gquar = quarantine(d.gquar, g, &d.health)
			return true
		}
		if e := d.gshadow.lookup(g); e != nil {
			stuckGlobalEntry(e, pat)
			d.health.StuckReads++
		}
		return false
	}
	if e := d.gshadow.lookup(g); e != nil {
		if bit, hit := d.inj.FlipBit(fault.UnitGlobal, part, globalEntryBits); hit {
			if d.inj.ECC() {
				d.health.CorrectedFlips++
			} else {
				flipGlobalEntry(e, bit)
				d.health.InjectedFlips++
			}
		}
	}
	return false
}

// faultShared applies shadow-cell faults to granule g of SM sm's tile
// before its check runs; true means the check is skipped. The key
// sm<<40 | g names the physical cell for both the stuck-cell stream and
// the quarantine set.
func (d *Detector) faultShared(sm int, shadow []sharedWord, g uint64) (skip bool) {
	key := uint64(sm)<<40 | g
	if _, q := d.squar[key]; q {
		d.health.QuarantineSkips++
		return true
	}
	if pat, stuck := d.inj.Stuck(fault.UnitShared, key); stuck {
		if d.inj.ECC() {
			if d.opt.Degradation == DegradeReinit {
				shadow[g] = swFresh
				d.health.ReinitGranules++
				return false
			}
			d.squar = quarantine(d.squar, key, &d.health)
			return true
		}
		shadow[g] = sharedWord(pat) & (1<<sharedEntryBits - 1)
		d.health.StuckReads++
		return false
	}
	if bit, hit := d.inj.FlipBit(fault.UnitShared, sm, sharedEntryBits); hit {
		if d.inj.ECC() {
			d.health.CorrectedFlips++
		} else {
			shadow[g] ^= 1 << bit
			d.health.InjectedFlips++
		}
	}
	return false
}

// quarantine removes a scrub-flagged cell from tracking (the default
// degradation policy), counting the quarantine and the skipped check.
func quarantine(set map[uint64]struct{}, key uint64, h *gpu.DetectorHealth) map[uint64]struct{} {
	if set == nil {
		set = make(map[uint64]struct{})
	}
	set[key] = struct{}{}
	h.QuarantinedGranules++
	h.QuarantineSkips++
	return set
}
