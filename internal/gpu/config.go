// Package gpu implements a cycle-level SIMT GPU simulator: streaming
// multiprocessors executing 32-lane warps in lockstep over the
// internal/isa instruction set, with a banked shared memory, per-SM
// non-coherent L1 caches, an interconnect to banked L2 + DRAM memory
// partitions, barriers, memory fences and atomics.
//
// It is the substrate on which HAccRG's race-detection units are
// evaluated, standing in for GPGPU-Sim 3.0.2 in the paper. Timing uses
// resource reservation (see internal/mem); functional execution happens
// at issue, which keeps results deterministic under the round-robin
// warp scheduler while still exposing the cross-warp access
// interleavings that race detection observes.
package gpu

import (
	"fmt"
	"math/bits"

	"haccrg/internal/bloom"
	"haccrg/internal/mem"
	"haccrg/internal/noc"
)

// Config describes the simulated GPU. DefaultConfig mirrors the
// paper's Table I (NVIDIA Quadro FX5800 with Fermi-style caches).
type Config struct {
	NumSMs          int // streaming multiprocessors
	SIMDWidth       int // SPs per SM; a warp issues over WarpSize/SIMDWidth cycles
	WarpSize        int
	MaxThreadsPerSM int
	MaxBlocksPerSM  int
	RegistersPerSM  int

	Shared mem.SharedConfig
	L1     mem.CacheConfig

	NumPartitions int
	Partition     mem.PartitionConfig
	NoC           noc.Config

	L1Latency     int64 // L1 hit latency
	SharedLatency int64 // shared-memory access latency (no conflicts)
	SFULatency    int64 // special-function (exp/log/sin/cos/sqrt/fdiv) issue cost
	FenceLatency  int64 // fixed pipeline cost of a memory fence

	// LocalBytesPerThread is each thread's CUDA local memory, carved
	// from device memory; a local access outside [0, it) fails the
	// launch.
	LocalBytesPerThread int

	// Bloom is the atomic-ID signature layout the SMs build lockset
	// signatures under and a detector intersects them under.
	Bloom bloom.Config

	// SegmentBytes is the coalescing segment / cache line size.
	SegmentBytes int

	// AlwaysBumpSyncID disables the paper's optimization of
	// incrementing a block's sync ID only when it accessed global
	// memory since its last barrier. Used by the gating ablation.
	AlwaysBumpSyncID bool

	// Scheduler selects the warp scheduling policy.
	Scheduler SchedPolicy
}

// SchedPolicy selects how an SM picks the next warp to issue.
type SchedPolicy uint8

// Warp scheduling policies.
const (
	// SchedRoundRobin cycles through ready warps (the paper's Table I).
	SchedRoundRobin SchedPolicy = iota
	// SchedGTO (greedy-then-oldest) keeps issuing from the current
	// warp until it stalls, then falls back to the oldest ready warp —
	// a common alternative that improves cache locality.
	SchedGTO
)

func (s SchedPolicy) String() string {
	switch s {
	case SchedRoundRobin:
		return "round-robin"
	case SchedGTO:
		return "gto"
	}
	return "sched?"
}

// DefaultConfig returns the paper's Table I machine.
func DefaultConfig() Config {
	return Config{
		NumSMs:          30,
		SIMDWidth:       8,
		WarpSize:        32,
		MaxThreadsPerSM: 1024,
		MaxBlocksPerSM:  8,
		RegistersPerSM:  16384,
		Shared:          mem.DefaultSharedConfig,
		L1: mem.CacheConfig{
			Name: "L1D", SizeBytes: 48 << 10, Assoc: 6, LineBytes: 128,
		},
		NumPartitions: 8,
		Partition: mem.PartitionConfig{
			L2: mem.CacheConfig{
				Name: "L2", SizeBytes: 64 << 10, Assoc: 8, LineBytes: 128, WriteBack: true,
			},
			DRAM:          mem.DefaultDRAMConfig,
			L2Latency:     40,
			AtomicLatency: 8,
		},
		NoC:                 noc.DefaultConfig,
		L1Latency:           20,
		SharedLatency:       6,
		SFULatency:          16,
		FenceLatency:        8,
		LocalBytesPerThread: 0,
		Bloom:               bloom.DefaultConfig,
		SegmentBytes:        128,
	}
}

// TestConfig returns a scaled-down machine for fast unit tests:
// fewer SMs and partitions, same warp geometry.
func TestConfig() Config {
	c := DefaultConfig()
	c.NumSMs = 4
	c.NumPartitions = 2
	return c
}

// Validate checks configuration invariants.
func (c *Config) Validate() error {
	if c.NumSMs <= 0 || c.NumPartitions <= 0 {
		return fmt.Errorf("gpu: need at least one SM and one partition")
	}
	if c.WarpSize <= 0 || c.WarpSize > 64 {
		return fmt.Errorf("gpu: warp size %d unsupported (1..64)", c.WarpSize)
	}
	if c.SIMDWidth <= 0 || c.WarpSize%c.SIMDWidth != 0 {
		return fmt.Errorf("gpu: SIMD width %d must divide warp size %d", c.SIMDWidth, c.WarpSize)
	}
	if c.MaxThreadsPerSM < c.WarpSize {
		return fmt.Errorf("gpu: MaxThreadsPerSM %d below warp size", c.MaxThreadsPerSM)
	}
	if c.SegmentBytes <= 0 || c.SegmentBytes&(c.SegmentBytes-1) != 0 {
		return fmt.Errorf("gpu: segment size %d not a power of two", c.SegmentBytes)
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.Partition.L2.Validate(); err != nil {
		return err
	}
	if err := c.Bloom.Validate(); err != nil {
		return err
	}
	if c.Shared.SizeBytes <= 0 || c.Shared.Banks <= 0 || c.Shared.BankWidth <= 0 {
		return fmt.Errorf("gpu: invalid shared memory config %+v", c.Shared)
	}
	return nil
}

// IssueInterval returns cycles an SM needs to issue one warp
// instruction through its SIMD pipeline.
func (c *Config) IssueInterval() int64 { return int64(c.WarpSize / c.SIMDWidth) }

// Partitions maps global byte addresses to the memory partitions that
// serve them and whose RDUs check them. It is line-interleaved: it
// depends only on addr / SegmentBytes, so every byte of a coalescing
// segment, and of any tracking granule no larger than one, maps to the
// partition whose RDU owns the granule's shadow entry.
type Partitions struct {
	shift uint   // log2 SegmentBytes (validated a power of two)
	n     uint64 // NumPartitions
	mask  uint64 // n-1 when n is a power of two above 1, else 0
}

// Partitions returns c's partition map.
func (c *Config) Partitions() Partitions {
	p := Partitions{shift: uint(bits.TrailingZeros64(uint64(c.SegmentBytes))), n: uint64(c.NumPartitions)}
	if p.n&(p.n-1) == 0 {
		p.mask = p.n - 1
	}
	return p
}

// Of returns the partition addr's line interleaves to. It runs per lane
// per global access, so it shifts and, when it can, masks.
func (p Partitions) Of(addr uint64) int {
	line := addr >> p.shift
	if p.mask != 0 {
		return int(line & p.mask)
	}
	return int(line % p.n)
}
