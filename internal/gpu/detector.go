package gpu

import (
	"haccrg/internal/bloom"
	"haccrg/internal/isa"
)

// LaneAccess is one thread's memory access within a warp instruction.
type LaneAccess struct {
	Lane int    // lane index within the warp
	Tid  int    // thread index within its block (the shadow tid field)
	GTid int    // global thread id
	Addr uint64 // byte address: global absolute; shared the SM-tile address, the block's base plus its offset
	Size uint8

	AtomicSig bloom.Sig // the thread's current lockset signature
	InCrit    bool      // issued inside a critical section
	L1Hit     bool      // global reads: whether the access hit the (stale-prone) L1
	L1Fill    int64     // cycle the hit L1 line's data was last refreshed
	Arrival   int64     // cycle the access reaches the RDU (partition for global)
}

// WarpMemEvent describes one warp-level memory instruction presented to
// a race detector: the per-lane accesses plus the metadata the paper's
// request packets carry (sync ID, fence ID, atomic IDs).
//
// Ownership: the event and its Lanes slice belong to the caller and
// are valid ONLY for the duration of the Detector.WarpMem call — the
// simulator reuses the backing storage for the next instruction.
// Detectors (and recorders) that journal events must copy what they
// keep into owned buffers before returning; retaining the pointer or
// the Lanes slice is a data race.
type WarpMemEvent struct {
	Space  isa.Space
	Write  bool
	Atomic bool
	PC     int

	SM          int // sid
	Block       int // bid (global block index)
	WarpInBlock int
	Kernel      string
	Stmt        string // builder annotation of the instruction, if any

	SyncID  uint32 // the block's barrier logical clock
	FenceID uint32 // the warp's fence logical clock
	Cycle   int64  // issue cycle

	Lanes []LaneAccess
}

// Env is the device-side interface a detector uses to model its
// hardware costs: shadow-memory traffic through a partition's L2/DRAM
// (hardware RDUs) or demand traffic from an SM (software
// instrumentation). The device facts a detector reads come from
// Config: the partition map (Config.Partitions) and the lockset
// signature layout (Config.Bloom).
type Env interface {
	// Config returns the device configuration.
	Config() *Config
	// ShadowTx performs an RDU-side access at partition part (no NoC
	// traversal: the RDU sits inside the memory slice). Returns the
	// completion cycle; the demand access does NOT wait for it.
	ShadowTx(part int, cycle int64, addr uint64, write bool) int64
	// InstrTx performs a demand global access from SM sm through the
	// full L1/NoC/L2/DRAM path, as software instrumentation would.
	// Returns the completion cycle.
	InstrTx(sm int, cycle int64, addr uint64, write bool) int64
	// InstrAtomicTx performs an atomic demand access (software shadow
	// updates are CAS loops that bypass the L1 and serialize at the
	// partition). Returns the completion cycle.
	InstrAtomicTx(sm int, cycle int64, addr uint64) int64
	// CurrentFenceID returns warp w of block b's fence clock — the
	// race register file lookup of Section IV-B.
	CurrentFenceID(block, warpInBlock int) uint32
	// GlobalMemSize returns the application-visible global memory size.
	// Shadow structures are placed from that address up, above the
	// application's memory.
	GlobalMemSize() uint64
}

// Detector observes execution and reports races. Implementations:
// internal/core (the paper's hardware HAccRG), internal/swdetect
// (its software build), internal/grace (the GRace-addr baseline).
//
// WarpMem returns extra cycles the issuing warp must stall — zero for
// hardware detection, the instrumentation cost for software schemes.
// The event passed to WarpMem is borrowed, not given: see the
// WarpMemEvent ownership contract.
// Barrier returns extra cycles before the block's warps are released
// (the shared-shadow invalidation cost the paper simulates).
type Detector interface {
	Name() string
	KernelStart(env Env, kernelName string)
	KernelEnd()
	WarpMem(ev *WarpMemEvent) (stall int64)
	Barrier(sm, block int, sharedBase, sharedSize int, cycle int64) (stall int64)
	// BlockStart fires when a fresh block is placed into an SM slot:
	// its shared-memory region (possibly inherited from a retired
	// block) starts a new life, an implicit barrier.
	BlockStart(sm int, sharedBase, sharedSize int)
}

// NopDetector is the baseline: detection disabled.
type NopDetector struct{}

// Name implements Detector.
func (NopDetector) Name() string { return "off" }

// KernelStart implements Detector.
func (NopDetector) KernelStart(Env, string) {}

// KernelEnd implements Detector.
func (NopDetector) KernelEnd() {}

// WarpMem implements Detector.
func (NopDetector) WarpMem(*WarpMemEvent) int64 { return 0 }

// Barrier implements Detector.
func (NopDetector) Barrier(int, int, int, int, int64) int64 { return 0 }

// BlockStart implements Detector.
func (NopDetector) BlockStart(int, int, int) {}
