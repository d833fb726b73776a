// Package grace models GRace-addr (Zheng et al., PPoPP 2011), the
// instrumentation-based shared-memory race detector the paper uses as
// its prior-work baseline. The published mechanism instruments every
// shared-memory access to record (warp, address, access-type)
// bookkeeping in device memory, and runs an analysis pass at every
// barrier that compares the recorded accesses of different warps.
//
// The paper measures GRace-addr roughly two orders of magnitude slower
// than the software HAccRG build, with a larger memory footprint
// (per-access logs instead of per-location shadow state). This model
// charges exactly those costs: per-access bookkeeping writes through
// the demand path plus an O(accesses) barrier-time scan, and it tracks
// the log footprint.
package grace

import (
	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// The instrumentation charges of the GRace-addr design point.
const (
	// aluPerAccess: inline bookkeeping instructions per access
	// (computing table slots, masks, flags).
	aluPerAccess = 30
	// recordBytes is the per-access bookkeeping record size.
	recordBytes = 16
	// scanCyclesPerRecord is the barrier-time analysis cost per logged
	// access (pairwise warp-table comparisons serialized on the SM).
	scanCyclesPerRecord = 500
)

// Detector implements gpu.Detector with GRace-addr's cost profile.
// Detection semantics reuse the core shared-memory state machine so
// that race *findings* remain comparable; GRace does not cover global
// memory, so global accesses are neither checked nor instrumented.
type Detector struct {
	*core.Detector
	env gpu.Env

	logged map[int]int64 // per-SM records since the last barrier

	// Stats.
	InstrStallCycles int64
	LogBytes         int64
}

// New builds the GRace-addr model. The options' Global flag is forced
// off (GRace is a shared-memory tool).
func New(opt core.Options) (*Detector, error) {
	opt.Global = false
	opt.DetectStaleL1 = false
	opt.SharedShadowInGlobal = false
	opt.ModelTraffic = false
	opt.Shared = true
	eng, err := core.New(opt)
	if err != nil {
		return nil, err
	}
	return &Detector{Detector: eng, logged: make(map[int]int64)}, nil
}

// Name implements gpu.Detector.
func (d *Detector) Name() string { return "grace-addr" }

// Health implements gpu.HealthReporter: GRace-addr reports no health,
// only races, and the harness refuses fault plans under it.
func (d *Detector) Health() *gpu.DetectorHealth { return nil }

// KernelStart implements gpu.Detector.
func (d *Detector) KernelStart(env gpu.Env, kernel string) {
	d.env = env
	d.Detector.KernelStart(env, kernel)
	d.logged = make(map[int]int64)
}

// WarpMem implements gpu.Detector.
func (d *Detector) WarpMem(ev *gpu.WarpMemEvent) int64 {
	if ev.Space != isa.SpaceShared {
		return 0
	}
	d.Detector.WarpMem(ev)

	cfg := d.env.Config()
	// Bookkeeping record per lane, coalescing into table lines: GRace
	// keeps per-warp tables, so a warp's records land in 1-2 lines.
	n := int64(len(ev.Lanes))
	recBytes := n * recordBytes
	d.LogBytes += recBytes
	d.logged[ev.SM] += n
	lines := (recBytes + int64(cfg.SegmentBytes) - 1) / int64(cfg.SegmentBytes)
	latest := ev.Cycle + aluPerAccess*cfg.IssueInterval()
	for i := int64(0); i < lines; i++ {
		latest = max(latest, d.env.InstrTx(ev.SM, latest, d.env.GlobalMemSize()+uint64(i*int64(cfg.SegmentBytes)), true))
	}
	stall := latest - ev.Cycle
	d.InstrStallCycles += stall
	return stall
}

// Barrier implements gpu.Detector: the barrier-time analysis scans
// every record logged since the previous barrier.
func (d *Detector) Barrier(sm, block int, sharedBase, sharedSize int, cycle int64) int64 {
	d.Detector.Barrier(sm, block, sharedBase, sharedSize, cycle)
	records := d.logged[sm]
	d.logged[sm] = 0
	stall := records * scanCyclesPerRecord
	d.InstrStallCycles += stall
	return stall
}
