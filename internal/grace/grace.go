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

// CostModel parameterizes the instrumentation charges.
type CostModel struct {
	// ALUPerAccess: inline bookkeeping instructions per access
	// (computing table slots, masks, flags).
	ALUPerAccess int
	// RecordBytes is the per-access bookkeeping record size.
	RecordBytes int
	// ScanCyclesPerRecord is the barrier-time analysis cost per logged
	// access (pairwise warp-table comparisons serialized on the SM).
	ScanCyclesPerRecord int64
}

// DefaultCostModel follows the GRace-addr design point.
var DefaultCostModel = CostModel{ALUPerAccess: 30, RecordBytes: 16, ScanCyclesPerRecord: 500}

// Detector implements gpu.Detector with GRace-addr's cost profile.
// Detection semantics reuse the core shared-memory state machine so
// that race *findings* remain comparable; GRace does not cover global
// memory, so global accesses are neither checked nor instrumented.
type Detector struct {
	inner *core.Detector
	cost  CostModel
	env   gpu.Env

	logged map[int]int64 // per-SM records since the last barrier

	// Stats.
	InstrStallCycles int64
	LogBytes         int64
}

// New builds the GRace-addr model. The options' Global flag is forced
// off (GRace is a shared-memory tool).
func New(opt core.Options, cost CostModel) (*Detector, error) {
	opt.Global = false
	opt.DetectStaleL1 = false
	opt.SharedShadowInGlobal = false
	opt.ModelTraffic = false
	opt.Shared = true
	inner, err := core.New(opt)
	if err != nil {
		return nil, err
	}
	return &Detector{inner: inner, cost: cost, logged: make(map[int]int64)}, nil
}

// Name implements gpu.Detector.
func (d *Detector) Name() string { return "grace-addr" }

// Races returns the detected (shared-memory) races.
func (d *Detector) Races() []*core.Race { return d.inner.Races() }

// KernelStart implements gpu.Detector.
func (d *Detector) KernelStart(env gpu.Env, kernel string) {
	d.env = env
	d.inner.KernelStart(env, kernel)
	d.logged = make(map[int]int64)
}

// KernelEnd implements gpu.Detector.
func (d *Detector) KernelEnd() {}

// BlockStart implements gpu.Detector.
func (d *Detector) BlockStart(sm int, sharedBase, sharedSize int) {
	d.inner.BlockStart(sm, sharedBase, sharedSize)
}

// WarpMem implements gpu.Detector.
func (d *Detector) WarpMem(ev *gpu.WarpMemEvent) int64 {
	if ev.Space != isa.SpaceShared {
		return 0
	}
	d.inner.WarpMem(ev)

	cfg := d.env.Config()
	stall := int64(d.cost.ALUPerAccess) * cfg.IssueInterval()
	// Bookkeeping record per lane, coalescing into table lines: GRace
	// keeps per-warp tables, so a warp's records land in 1-2 lines.
	n := int64(len(ev.Lanes))
	recBytes := n * int64(d.cost.RecordBytes)
	d.LogBytes += recBytes
	d.logged[ev.SM] += n
	lines := (recBytes + int64(cfg.SegmentBytes) - 1) / int64(cfg.SegmentBytes)
	latest := ev.Cycle + stall
	for i := int64(0); i < lines; i++ {
		latest = max(latest, d.env.InstrTx(ev.SM, latest, d.env.GlobalMemSize()+uint64(i*int64(cfg.SegmentBytes)), true))
	}
	stall = latest - ev.Cycle
	d.InstrStallCycles += stall
	return stall
}

// Barrier implements gpu.Detector: the barrier-time analysis scans
// every record logged since the previous barrier.
func (d *Detector) Barrier(sm, block int, sharedBase, sharedSize int, cycle int64) int64 {
	d.inner.Barrier(sm, block, sharedBase, sharedSize, cycle)
	records := d.logged[sm]
	d.logged[sm] = 0
	stall := records * d.cost.ScanCyclesPerRecord
	d.InstrStallCycles += stall
	return stall
}
