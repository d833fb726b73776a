// Package swdetect models the software implementation of HAccRG the
// paper compares against in Section VI-B: the same detection algorithm
// as internal/core, but run as inline kernel instrumentation instead
// of dedicated hardware. Every memory instruction expands into extra
// ALU work (address arithmetic, field extraction, state-machine
// branches) plus shadow-entry loads and stores that travel the normal
// demand path — all of it blocking the issuing warp, which is where
// the 6-18x slowdowns of the paper come from.
package swdetect

import (
	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// CostModel sets the per-access instrumentation charges.
type CostModel struct {
	// ALUPerAccess is the number of extra warp instructions executed
	// around each memory instruction (index computation, unpacking the
	// shadow fields, the state-machine compare/branch sequence).
	ALUPerAccess int
	// ShadowUpdate adds a read-modify-write of the shadow entry
	// through the demand memory path (always on; the flag exists for
	// ablations).
	ShadowUpdate bool
	// AtomicShadow serializes shadow updates with an atomic operation,
	// as a correct multi-warp software implementation requires.
	AtomicShadow bool
}

// DefaultCostModel reflects a hand-tuned instrumentation sequence of
// roughly a dozen instructions per access.
var DefaultCostModel = CostModel{ALUPerAccess: 40, ShadowUpdate: true, AtomicShadow: true}

// Detector is the software HAccRG build. It reuses the core detection
// algorithm (with hardware traffic modelling disabled) and charges
// instrumentation costs.
type Detector struct {
	inner *core.Detector
	cost  CostModel
	env   gpu.Env

	// Stats.
	InstrStallCycles int64
	ShadowDemandTx   int64
}

// New builds the software detector. Options follow core semantics;
// ModelTraffic is forced off.
func New(opt core.Options, cost CostModel) (*Detector, error) {
	opt.ModelTraffic = false
	inner, err := core.New(opt)
	if err != nil {
		return nil, err
	}
	return &Detector{inner: inner, cost: cost}, nil
}

// MustNew is New panicking on invalid options.
func MustNew(opt core.Options, cost CostModel) *Detector {
	d, err := New(opt, cost)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements gpu.Detector.
func (d *Detector) Name() string { return "sw-haccrg" }

// Inner exposes the underlying detection engine (races, stats).
func (d *Detector) Inner() *core.Detector { return d.inner }

// Health implements gpu.HealthReporter via the core engine.
func (d *Detector) Health() *gpu.DetectorHealth { return d.inner.Health() }

// Races returns the detected races.
func (d *Detector) Races() []*core.Race { return d.inner.Races() }

// KernelStart implements gpu.Detector.
func (d *Detector) KernelStart(env gpu.Env, kernel string) {
	d.env = env
	d.inner.KernelStart(env, kernel)
}

// KernelEnd implements gpu.Detector.
func (d *Detector) KernelEnd() { d.inner.KernelEnd() }

// BlockStart implements gpu.Detector.
func (d *Detector) BlockStart(sm int, sharedBase, sharedSize int) {
	d.inner.BlockStart(sm, sharedBase, sharedSize)
}

// WarpMem implements gpu.Detector: run detection, then charge the
// instrumentation the software build would execute inline.
func (d *Detector) WarpMem(ev *gpu.WarpMemEvent) int64 {
	opt := d.inner.Options()
	if ev.Space == isa.SpaceShared && !opt.Shared {
		return 0
	}
	if ev.Space == isa.SpaceGlobal && !opt.Global {
		return 0
	}
	d.inner.WarpMem(ev)

	cfg := d.env.Config()
	stall := int64(d.cost.ALUPerAccess) * cfg.IssueInterval()
	if d.cost.ShadowUpdate {
		// One shadow read + one shadow write per distinct shadow line
		// the warp's lanes touch, through the demand path, blocking.
		// Lines are issued in first-touch lane order: each transaction
		// moves partition and NoC state, so the order is part of the
		// timing and must not depend on map iteration.
		gran := uint64(opt.GlobalGranularity)
		if ev.Space == isa.SpaceShared {
			gran = uint64(opt.SharedGranularity)
		}
		const entryBytes = 8
		seg := uint64(cfg.SegmentBytes)
		var buf [32]uint64
		lines := buf[:0]
	lanes:
		for i := range ev.Lanes {
			la := &ev.Lanes[i]
			line := (d.env.ShadowBase() + (la.Addr/gran)*entryBytes) &^ (seg - 1)
			for _, l := range lines {
				if l == line {
					continue lanes
				}
			}
			lines = append(lines, line)
		}
		when := ev.Cycle + stall
		latest := when
		for _, line := range lines {
			var t2 int64
			if d.cost.AtomicShadow {
				// Shadow entries are updated with a CAS that bypasses
				// the L1 and serializes at the partition.
				t2 = d.env.InstrAtomicTx(ev.SM, when, line)
				d.ShadowDemandTx++
			} else {
				t := d.env.InstrTx(ev.SM, when, line, false)
				t2 = d.env.InstrTx(ev.SM, t, line, true)
				d.ShadowDemandTx += 2
			}
			if t2 > latest {
				latest = t2
			}
		}
		stall = latest - ev.Cycle
	}
	d.InstrStallCycles += stall
	return stall
}

// Barrier implements gpu.Detector: the software build resets its
// shadow region with a memset-like sweep through the demand path.
func (d *Detector) Barrier(sm, block int, sharedBase, sharedSize int, cycle int64) int64 {
	d.inner.Barrier(sm, block, sharedBase, sharedSize, cycle)
	opt := d.inner.Options()
	if !opt.Shared || sharedSize == 0 {
		return 0
	}
	cfg := d.env.Config()
	entries := int64(sharedSize / opt.SharedGranularity)
	lineBytes := int64(cfg.SegmentBytes)
	spanLines := (entries*2 + lineBytes - 1) / lineBytes
	var latest int64 = cycle
	for i := int64(0); i < spanLines; i++ {
		t := d.env.InstrTx(sm, cycle, d.env.ShadowBase()+uint64(i)*uint64(lineBytes), true)
		d.ShadowDemandTx++
		if t > latest {
			latest = t
		}
	}
	stall := latest - cycle
	d.InstrStallCycles += stall
	return stall
}
