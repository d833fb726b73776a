package core

import "haccrg/internal/gpu"

// HardwareCost reports the control-logic and storage overhead of
// HAccRG for a given machine, reproducing the arithmetic of Section
// VI-C2. All byte figures are exact (fractional KB kept as bytes).
//
// The bit widths are not re-derived from the device configuration:
// they are the architectural field widths of the packed shadow words
// the engine actually implements (packed.go's arch* constants), so the
// cost model, the fault injector's corruption masks and the hot-path
// encodings can never disagree about the entry layout. Entry and
// comparator counts remain configuration-derived.
type HardwareCost struct {
	// Shared-memory RDU.
	SharedEntryBits        int // 1 modified + 1 shared + tid bits
	SharedEntries          int // per SM
	SharedShadowBytesPerSM int
	SharedComparatorsPerSM int // parallel comparisons across banks

	// Global-memory RDU.
	GlobalEntryBitsBase       int // modified + shared + tid + bid + sid + sync ID
	GlobalEntryBitsFence      int // base + fence ID
	GlobalEntryBitsAtomic     int // base + fence ID + atomic-ID low bits
	GlobalComparatorsPerSlice int
	IDComparatorsPerSlice     int

	// Per-SM ID storage for global detection.
	SyncIDBytesPerSM   int
	FenceIDBytesPerSM  int
	AtomicIDBytesPerSM int
	IDBytesPerSM       int

	// Race register file (fence IDs of all SMs), replicated per slice.
	RaceRegisterFileBytes int
}

// ComputeHardwareCost evaluates the overhead model for a device
// configuration and detector options.
func ComputeHardwareCost(cfg *gpu.Config, opt Options) HardwareCost {
	var c HardwareCost

	c.SharedEntryBits = sharedEntryBits // 2 + archTidBits
	c.SharedEntries = cfg.Shared.SizeBytes / opt.SharedGranularity
	c.SharedShadowBytesPerSM = (c.SharedEntries*c.SharedEntryBits + 7) / 8
	// One comparator per bank at the tracking granularity; the paper's
	// 8 comparators arise from 16 banks * 4B served per 16B granule.
	c.SharedComparatorsPerSM = cfg.Shared.Banks * cfg.Shared.BankWidth / opt.SharedGranularity
	if c.SharedComparatorsPerSM < 1 {
		c.SharedComparatorsPerSM = 1
	}

	c.GlobalEntryBitsBase = 2 + archTidBits + archBidBits + archSidBits + archSyncBits
	c.GlobalEntryBitsFence = c.GlobalEntryBitsBase + archFenceBits
	c.GlobalEntryBitsAtomic = c.GlobalEntryBitsFence + archSigBits // == globalEntryBits
	// One comparator per granule in a cache line for the base entries,
	// plus one per two granules for fence/atomic IDs (Section VI-C2).
	granulesPerLine := cfg.SegmentBytes / opt.GlobalGranularity
	c.GlobalComparatorsPerSlice = granulesPerLine
	c.IDComparatorsPerSlice = granulesPerLine / 2

	// The per-SM ID tables hold the full-width IDs the RDUs compare
	// entry fields against: architectural sync/fence widths, and the
	// configured Bloom signature for atomic IDs (only its low
	// archSigBits land in the shadow entry).
	warpsPerSM := cfg.MaxThreadsPerSM / cfg.WarpSize
	c.SyncIDBytesPerSM = cfg.MaxBlocksPerSM * archSyncBits / 8
	c.FenceIDBytesPerSM = warpsPerSM * archFenceBits / 8
	c.AtomicIDBytesPerSM = cfg.MaxThreadsPerSM * cfg.Bloom.SizeBits / 8
	c.IDBytesPerSM = c.SyncIDBytesPerSM + c.FenceIDBytesPerSM + c.AtomicIDBytesPerSM

	c.RaceRegisterFileBytes = cfg.NumSMs * warpsPerSM * archFenceBits / 8
	return c
}

// GlobalShadowBytes returns the device-memory footprint of the global
// shadow entries for a kernel touching appBytes of global data at the
// configured granularity (Table IV). Entries are stored packed at the
// full fence+atomic format's byte-rounded size, not in the power-of-two
// slots (GlobalSlotBytes) by which the simulator addresses them.
func GlobalShadowBytes(appBytes int, opt Options) int64 {
	packed := int64((globalEntryBits + 7) / 8) // 52 bits -> 7 bytes
	granules := (appBytes + opt.GlobalGranularity - 1) / opt.GlobalGranularity
	return int64(granules) * packed
}
