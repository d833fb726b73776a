package gpu

import "haccrg/internal/mem"

// LaunchStats aggregates one kernel launch's execution statistics.
type LaunchStats struct {
	Kernel string
	Cycles int64

	// BlocksRetired counts thread-blocks that ran to completion. On a
	// full run it equals the grid size; on an aborted launch (see
	// HangError) it shows how far the run got.
	BlocksRetired int64

	WarpInstrs   int64 // issued warp instructions
	ThreadInstrs int64 // lane-level instructions (active lanes summed)

	// Thread-level memory operation counts.
	SharedReads   int64
	SharedWrites  int64
	SharedAtomics int64
	GlobalReads   int64
	GlobalWrites  int64
	GlobalAtomics int64
	LocalAccesses int64

	Barriers    int64 // block-level barrier episodes
	Fences      int64 // warp-level fence completions
	Divergences int64

	MaxSyncID  uint32 // largest barrier logical clock any block reached
	MaxFenceID uint32 // largest fence logical clock any warp reached

	DetectorStall int64 // cycles detectors added (barrier invalidation, instrumentation)

	// IssueSlots counts SM-cycles of issue opportunity (cycles x SMs
	// with resident work); WarpInstrs/IssueSlots approximates issue
	// utilization.
	IssueSlots int64

	L1       mem.CacheStats
	L2       mem.CacheStats
	DRAMUtil float64 // average across channels, of busy cycles / total
	DRAMTx   int64
	NoCFlits int64

	ShadowTx int64 // RDU-injected transactions at the partitions

	// Health is the attached detector's degradation report (nil when
	// the detector does not implement HealthReporter, e.g. NopDetector).
	Health *DetectorHealth
}

// SharedReadPct returns shared-memory reads as a percentage of all
// thread instructions (Table II's "Shared Reads" column).
func (s *LaunchStats) SharedReadPct() float64 {
	if s.ThreadInstrs == 0 {
		return 0
	}
	return 100 * float64(s.SharedReads) / float64(s.ThreadInstrs)
}

// GlobalReadPct returns global-memory reads as a percentage of all
// thread instructions (Table II's "Global Reads" column).
func (s *LaunchStats) GlobalReadPct() float64 {
	if s.ThreadInstrs == 0 {
		return 0
	}
	return 100 * float64(s.GlobalReads) / float64(s.ThreadInstrs)
}

// IssueUtilization returns the fraction of issue opportunities that
// issued an instruction (0 when unknown).
func (s *LaunchStats) IssueUtilization() float64 {
	if s.IssueSlots == 0 {
		return 0
	}
	u := float64(s.WarpInstrs) / float64(s.IssueSlots)
	if u > 1 {
		u = 1
	}
	return u
}

// Add accumulates another launch's statistics (multi-kernel workloads).
func (s *LaunchStats) Add(o *LaunchStats) {
	s.Cycles += o.Cycles
	s.BlocksRetired += o.BlocksRetired
	// Detectors report health cumulatively across a device's launches;
	// keep the latest report rather than double-counting.
	if o.Health != nil {
		s.Health = o.Health
	}
	s.WarpInstrs += o.WarpInstrs
	s.ThreadInstrs += o.ThreadInstrs
	s.SharedReads += o.SharedReads
	s.SharedWrites += o.SharedWrites
	s.SharedAtomics += o.SharedAtomics
	s.GlobalReads += o.GlobalReads
	s.GlobalWrites += o.GlobalWrites
	s.GlobalAtomics += o.GlobalAtomics
	s.LocalAccesses += o.LocalAccesses
	s.Barriers += o.Barriers
	s.Fences += o.Fences
	s.Divergences += o.Divergences
	if o.MaxSyncID > s.MaxSyncID {
		s.MaxSyncID = o.MaxSyncID
	}
	if o.MaxFenceID > s.MaxFenceID {
		s.MaxFenceID = o.MaxFenceID
	}
	s.DetectorStall += o.DetectorStall
	s.IssueSlots += o.IssueSlots
	s.L1.ReadHits += o.L1.ReadHits
	s.L1.ReadMisses += o.L1.ReadMisses
	s.L1.WriteHits += o.L1.WriteHits
	s.L1.WriteMisses += o.L1.WriteMisses
	s.L2.ReadHits += o.L2.ReadHits
	s.L2.ReadMisses += o.L2.ReadMisses
	s.L2.WriteHits += o.L2.WriteHits
	s.L2.WriteMisses += o.L2.WriteMisses
	s.DRAMTx += o.DRAMTx
	s.NoCFlits += o.NoCFlits
	s.ShadowTx += o.ShadowTx
	// Weighted by cycles so long kernels dominate, as in the paper's
	// whole-benchmark utilization numbers.
	total := s.Cycles
	if total > 0 {
		s.DRAMUtil = (s.DRAMUtil*float64(total-o.Cycles) + o.DRAMUtil*float64(o.Cycles)) / float64(total)
	}
}
