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
	"slices"

	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// aluPerAccess is the number of extra warp instructions a hand-tuned
// instrumentation sequence executes around each memory instruction
// (index computation, unpacking the shadow fields, the state-machine
// compare/branch sequence).
const aluPerAccess = 40

// Detector is the software HAccRG build: the core detection engine
// (with hardware traffic modelling disabled) plus the instrumentation
// costs it charges.
type Detector struct {
	*core.Detector
	env gpu.Env

	// Stats.
	InstrStallCycles int64
}

// New builds the software detector. Options follow core semantics;
// ModelTraffic is forced off.
func New(opt core.Options) (*Detector, error) {
	opt.ModelTraffic = false
	eng, err := core.New(opt)
	if err != nil {
		return nil, err
	}
	return &Detector{Detector: eng}, nil
}

// Name implements gpu.Detector.
func (d *Detector) Name() string { return "sw-haccrg" }

// KernelStart implements gpu.Detector.
func (d *Detector) KernelStart(env gpu.Env, kernel string) {
	d.env = env
	d.Detector.KernelStart(env, kernel)
}

// WarpMem implements gpu.Detector: run detection, then charge the
// instrumentation the software build would execute inline.
func (d *Detector) WarpMem(ev *gpu.WarpMemEvent) int64 {
	opt := d.Options()
	if ev.Space == isa.SpaceShared && !opt.Shared || ev.Space == isa.SpaceGlobal && !opt.Global {
		return 0
	}
	d.Detector.WarpMem(ev)

	// One atomic read-modify-write per distinct shadow line the warp's
	// lanes touch, through the demand path, blocking. Lines are issued
	// in first-touch lane order: each transaction moves partition and
	// NoC state, so the order is part of the timing and must not depend
	// on map iteration.
	cfg := d.env.Config()
	gran := uint64(opt.GlobalGranularity)
	if ev.Space == isa.SpaceShared {
		gran = uint64(opt.SharedGranularity)
	}
	seg, mem := uint64(cfg.SegmentBytes), d.env.GlobalMemSize()
	var buf [32]uint64
	lines := buf[:0]
	for i := range ev.Lanes {
		line := core.GlobalSlotAddr(mem, ev.Lanes[i].Addr/gran) &^ (seg - 1)
		if !slices.Contains(lines, line) {
			lines = append(lines, line)
		}
	}
	when := ev.Cycle + aluPerAccess*cfg.IssueInterval()
	latest := when
	for _, line := range lines {
		// Shadow entries are updated with a CAS that bypasses the L1
		// and serializes at the partition, as a correct multi-warp
		// software implementation requires.
		latest = max(latest, d.env.InstrAtomicTx(ev.SM, when, line))
	}
	stall := latest - ev.Cycle
	d.InstrStallCycles += stall
	return stall
}

// Barrier implements gpu.Detector: the software build resets its
// shadow region with a memset-like sweep through the demand path.
func (d *Detector) Barrier(sm, block int, sharedBase, sharedSize int, cycle int64) int64 {
	d.Detector.Barrier(sm, block, sharedBase, sharedSize, cycle)
	opt := d.Options()
	if !opt.Shared || sharedSize == 0 {
		return 0
	}
	entries := int64(sharedSize / opt.SharedGranularity)
	lineBytes := int64(d.env.Config().SegmentBytes)
	spanLines := (entries*core.SharedSlotBytes + lineBytes - 1) / lineBytes
	latest := cycle
	for i := int64(0); i < spanLines; i++ {
		latest = max(latest, d.env.InstrTx(sm, cycle, d.env.GlobalMemSize()+uint64(i)*uint64(lineBytes), true))
	}
	stall := latest - cycle
	d.InstrStallCycles += stall
	return stall
}
