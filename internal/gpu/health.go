package gpu

import "fmt"

// DetectorHealth reports how much of a run's detection coverage
// survived resource pressure and injected hardware faults. A detector
// that ran fault-free returns all-zero counters with Degraded false;
// any dropped check, applied corruption, quarantine action or
// signature saturation flips Degraded, signalling that race findings
// may have silently diverged from the fault-free run.
type DetectorHealth struct {
	// DroppedChecks counts lane checks the RDU check queues rejected
	// under burst load (each is a potential missed race).
	DroppedChecks int64
	// InjectedFlips counts shadow-entry bit flips actually applied
	// (ECC-corrected flips appear in CorrectedFlips instead).
	InjectedFlips int64
	// CorrectedFlips counts flips the modeled ECC scrub caught.
	CorrectedFlips int64
	// StuckReads counts shadow reads served from stuck-at cells
	// without ECC (silent corruption).
	StuckReads int64
	// QuarantinedGranules counts distinct granules the degradation
	// policy removed from tracking after the scrub flagged them.
	QuarantinedGranules int64
	// QuarantineSkips counts lane checks skipped because their granule
	// was quarantined.
	QuarantineSkips int64
	// ReinitGranules counts conservative entry re-initializations of
	// detected-corrupt granules (the alternative degradation policy).
	ReinitGranules int64
	// SaturatedSigs counts lockset checks whose signature was
	// saturated by the injected Bloom fill.
	SaturatedSigs int64
	// LatencySpikes counts shadow fetches that suffered an injected
	// latency spike.
	LatencySpikes int64

	// TotalChecks is the lane-check denominator for the exposure
	// estimate (shared + global RDU checks).
	TotalChecks int64
	// BloomFillPct is the average observed lockset-signature fill
	// ratio at lockset checks, in percent (0 when no lockset checks
	// ran). High fill means the filter is saturating and lockset
	// races are being missed.
	BloomFillPct float64

	// Degraded is true when any fault perturbed detection: findings
	// are not guaranteed to match a fault-free run.
	Degraded bool
}

// EstFalseNegPct estimates the fraction of lane checks whose race
// verdict may have been lost — dropped at the queue, skipped by
// quarantine, or computed from silently corrupted shadow state — in
// percent of all checks.
func (h *DetectorHealth) EstFalseNegPct() float64 {
	if h == nil || h.TotalChecks == 0 {
		return 0
	}
	lost := h.DroppedChecks + h.QuarantineSkips + h.StuckReads + h.InjectedFlips
	if lost > h.TotalChecks {
		lost = h.TotalChecks
	}
	return 100 * float64(lost) / float64(h.TotalChecks)
}

// Add accumulates another launch's health (multi-kernel workloads).
func (h *DetectorHealth) Add(o *DetectorHealth) {
	if o == nil {
		return
	}
	// Weight the fill average by lockset activity proxy (SaturatedSigs
	// is not a denominator; use simple max — fills are per-run
	// averages of the same detector, so the max is the conservative
	// "worst kernel" summary).
	if o.BloomFillPct > h.BloomFillPct {
		h.BloomFillPct = o.BloomFillPct
	}
	h.DroppedChecks += o.DroppedChecks
	h.InjectedFlips += o.InjectedFlips
	h.CorrectedFlips += o.CorrectedFlips
	h.StuckReads += o.StuckReads
	h.QuarantinedGranules += o.QuarantinedGranules
	h.QuarantineSkips += o.QuarantineSkips
	h.ReinitGranules += o.ReinitGranules
	h.SaturatedSigs += o.SaturatedSigs
	h.LatencySpikes += o.LatencySpikes
	h.TotalChecks += o.TotalChecks
	h.Degraded = h.Degraded || o.Degraded
}

// String renders a one-line summary for CLI output.
func (h *DetectorHealth) String() string {
	if h == nil {
		return "health: n/a"
	}
	if !h.Degraded {
		return fmt.Sprintf("health: ok (%d checks, bloom fill %.1f%%)", h.TotalChecks, h.BloomFillPct)
	}
	return fmt.Sprintf(
		"health: DEGRADED dropped=%d flips=%d(corrected %d) stuck=%d quarantined=%d(skips %d) reinit=%d satsigs=%d spikes=%d est-false-neg=%.2f%%",
		h.DroppedChecks, h.InjectedFlips, h.CorrectedFlips, h.StuckReads,
		h.QuarantinedGranules, h.QuarantineSkips, h.ReinitGranules,
		h.SaturatedSigs, h.LatencySpikes, h.EstFalseNegPct())
}

// HealthReporter is the optional detector extension surfacing a
// DetectorHealth report. Device.Launch attaches it to LaunchStats when
// the attached detector (or a wrapper forwarding to one) implements it.
type HealthReporter interface {
	Health() *DetectorHealth
}
