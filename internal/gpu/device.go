package gpu

import (
	"context"
	"fmt"
	"math"

	"haccrg/internal/mem"
	"haccrg/internal/noc"
)

// Device is the simulated GPU: SMs, interconnect, memory partitions
// and the flat device (global) memory, plus an attached race detector.
type Device struct {
	cfg      Config
	Global   *mem.Memory
	parts    []*mem.Partition
	net      *noc.Network
	sms      []*sm
	detector Detector

	// busy lists the SMs that hold warps, in id order: the only SMs a
	// scheduler step visits (DESIGN.md, "Scheduler step"). It is
	// rebuilt after the launch places its blocks and after a step in
	// which a block retired, never while a step walks it.
	busy []*sm
	// stepHook, when set (tests only), runs at the start of every
	// scheduler step.
	stepHook func()

	partitions Partitions // cfg.Partitions()

	allocPtr  uint64
	localBase uint64

	// Launch state.
	launch     *Kernel
	nextBlock  int
	blocksLeft int
	now        int64
	liveBlocks map[int]*block
	fenceHist  map[int][]uint32 // retired blocks' final fence IDs
	maxSync    uint32
	maxFence   uint32
}

// NewDevice builds a GPU with the given configuration and device
// memory size. The detector may be nil (detection off).
func NewDevice(cfg Config, globalBytes int, det Detector) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if det == nil {
		det = NopDetector{}
	}
	d := &Device{
		cfg:        cfg,
		Global:     mem.NewMemory("global", globalBytes),
		net:        noc.New(cfg.NoC, cfg.NumPartitions),
		detector:   det,
		liveBlocks: make(map[int]*block),
		fenceHist:  make(map[int][]uint32),
		partitions: cfg.Partitions(),
	}
	for i := 0; i < cfg.NumPartitions; i++ {
		p, err := mem.NewPartition(i, cfg.Partition)
		if err != nil {
			return nil, err
		}
		d.parts = append(d.parts, p)
	}
	for i := 0; i < cfg.NumSMs; i++ {
		d.sms = append(d.sms, newSM(i, d))
	}
	d.busy = make([]*sm, 0, cfg.NumSMs)
	return d, nil
}

// MustNewDevice is NewDevice panicking on error, for static setups.
func MustNewDevice(cfg Config, globalBytes int, det Detector) *Device {
	d, err := NewDevice(cfg, globalBytes, det)
	if err != nil {
		panic(err)
	}
	return d
}

// Detector returns the attached race detector.
func (d *Device) Detector() Detector { return d.detector }

// Malloc reserves size bytes of device memory (256-byte aligned, like
// cudaMalloc) and returns the base address.
func (d *Device) Malloc(size int) (uint64, error) {
	base := (d.allocPtr + 255) &^ 255
	if base+uint64(size) > uint64(d.Global.Size()) {
		return 0, fmt.Errorf("gpu: out of device memory (%d requested, %d free)",
			size, uint64(d.Global.Size())-base)
	}
	d.allocPtr = base + uint64(size)
	return base, nil
}

// MustMalloc is Malloc panicking on exhaustion.
func (d *Device) MustMalloc(size int) uint64 {
	a, err := d.Malloc(size)
	if err != nil {
		panic(err)
	}
	return a
}

// ResetAllocator releases all device allocations (workload teardown).
func (d *Device) ResetAllocator() { d.allocPtr = 0 }

// Launch runs a kernel to completion and returns its statistics. It is
// LaunchContext with no cancellation and no limits.
func (d *Device) Launch(k *Kernel) (*LaunchStats, error) {
	return d.LaunchContext(context.Background(), k, LaunchLimits{})
}

// watchdogStride is how many scheduler iterations pass between context
// checks — cheap enough to leave always-on, tight enough that a
// wall-clock deadline aborts a runaway simulation promptly.
const watchdogStride = 1024

// LaunchContext runs a kernel under the given context and limits.
//
// If the kernel deadlocks, exhausts the cycle budget, or the context is
// canceled (the wall-clock watchdog), the returned error is a
// *HangError carrying per-block barrier-wait diagnostics — and the
// returned stats are non-nil, holding the partial run (cycles executed,
// blocks retired, cache/DRAM counters), so aborted runs stay
// analyzable. Execution faults (bad memory accesses) likewise return
// partial stats alongside the error.
func (d *Device) LaunchContext(ctx context.Context, k *Kernel, lim LaunchLimits) (*LaunchStats, error) {
	if err := k.Validate(&d.cfg); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("gpu: kernel %q not launched: %w", k.Name, err)
	}
	if d.cfg.LocalBytesPerThread > 0 {
		need := k.GridDim * k.BlockDim * d.cfg.LocalBytesPerThread
		base, err := d.Malloc(need)
		if err != nil {
			return nil, fmt.Errorf("gpu: local memory: %w", err)
		}
		d.localBase = base
	}

	st := &LaunchStats{Kernel: k.Name}
	d.launch = k
	d.nextBlock = 0
	d.blocksLeft = k.GridDim
	d.now = 0
	d.maxSync = 0
	d.maxFence = 0
	clear(d.liveBlocks)
	clear(d.fenceHist)

	// Fresh per-launch component state: non-coherent L1s are invalid
	// at kernel boundaries; stats counters restart.
	for _, s := range d.sms {
		s.l1.Flush()
		s.l1.Stats = mem.CacheStats{}
		s.issueFree = 0
		s.rr = 0
		s.pendingErr = nil
		clear(s.mshr)
	}
	for _, p := range d.parts {
		p.ResetStats()
	}
	d.net.ResetStats()

	d.detector.KernelStart(d, k.Name)

	// Distribute blocks breadth-first across SMs, as hardware work
	// distribution does.
	limit := k.blocksPerSM(&d.cfg)
	for slot := 0; slot < limit && d.nextBlock < k.GridDim; slot++ {
		for _, s := range d.sms {
			if d.nextBlock >= k.GridDim {
				break
			}
			d.placeNext(s, slot)
		}
	}
	d.rebuildBusy()
	for _, s := range d.busy {
		s.nextIssue = s.earliestReady()
	}

	var iter int64
	for d.blocksLeft > 0 {
		iter++
		if iter%watchdogStride == 0 {
			if err := ctx.Err(); err != nil {
				return d.finalize(st, k), d.hangError(k, HangCanceled, err)
			}
		}
		if d.stepHook != nil {
			d.stepHook()
		}
		next := int64(math.MaxInt64)
		for _, s := range d.busy {
			next = min(next, s.nextIssue)
		}
		if next == math.MaxInt64 {
			return d.finalize(st, k), d.hangError(k, HangDeadlock, nil)
		}
		if lim.MaxCycles > 0 && next > lim.MaxCycles {
			return d.finalize(st, k), d.hangError(k, HangCycleBudget, nil)
		}
		d.now = next
		left := d.blocksLeft
		// An SM's blocks retire and are placed only inside its own
		// issue, so each listed SM still holds warps when it is reached.
		// An SM whose next issue cycle is later than this step's cannot
		// issue in it, and nothing outside its own issue moves that cycle.
		for _, s := range d.busy {
			if s.issueFree <= next {
				st.IssueSlots++
			}
			if s.nextIssue > next {
				continue
			}
			s.issue(next, k, st)
			if s.pendingErr != nil {
				return d.finalize(st, k), s.pendingErr
			}
			s.nextIssue = s.earliestReady()
		}
		if d.blocksLeft != left {
			d.rebuildBusy()
		}
	}

	d.detector.KernelEnd()
	return d.finalize(st, k), nil
}

// finalize folds the device-side counters into the launch stats; it is
// shared by the success path and every abort path, so partial runs
// carry real cache/DRAM/detector numbers.
func (d *Device) finalize(st *LaunchStats, k *Kernel) *LaunchStats {
	st.Cycles = d.now
	st.BlocksRetired = int64(k.GridDim - d.blocksLeft)
	st.MaxSyncID = d.maxSync
	st.MaxFenceID = d.maxFence
	for _, s := range d.sms {
		st.L1.ReadHits += s.l1.Stats.ReadHits
		st.L1.ReadMisses += s.l1.Stats.ReadMisses
		st.L1.WriteHits += s.l1.Stats.WriteHits
		st.L1.WriteMisses += s.l1.Stats.WriteMisses
	}
	var util float64
	for _, p := range d.parts {
		st.L2.ReadHits += p.L2.Stats.ReadHits
		st.L2.ReadMisses += p.L2.Stats.ReadMisses
		st.L2.WriteHits += p.L2.Stats.WriteHits
		st.L2.WriteMisses += p.L2.Stats.WriteMisses
		st.DRAMTx += p.DRAM.Reads + p.DRAM.Writes
		st.ShadowTx += p.ShadowAccess
		util += p.DRAM.Utilization(st.Cycles)
	}
	if st.Cycles > 0 {
		st.DRAMUtil = util / float64(len(d.parts))
	}
	st.NoCFlits = d.net.FlitCount
	if hr, ok := d.detector.(HealthReporter); ok {
		st.Health = hr.Health()
	}
	return st
}

// rebuildBusy lists the SMs that hold warps, in id order.
func (d *Device) rebuildBusy() {
	d.busy = d.busy[:0]
	for _, s := range d.sms {
		if len(s.warps) > 0 {
			d.busy = append(d.busy, s)
		}
	}
}

// placeNext installs the next pending block on SM s at the given slot.
func (d *Device) placeNext(s *sm, slot int) {
	bid := d.nextBlock
	d.nextBlock++
	s.place(slot, bid, d.launch, d.now)
	d.liveBlocks[bid] = s.blocks[slot]
}

// blockFinished is called by an SM when block b retires from slot.
func (d *Device) blockFinished(b *block, slot int) {
	// Preserve final fence IDs for late RDU lookups, and track the
	// logical-clock maxima (Section VI-A2's ID-sizing data).
	ids := make([]uint32, len(b.warps))
	for i, w := range b.warps {
		ids[i] = w.fenceID
		if w.fenceID > d.maxFence {
			d.maxFence = w.fenceID
		}
	}
	if b.syncID > d.maxSync {
		d.maxSync = b.syncID
	}
	d.fenceHist[b.id] = ids
	delete(d.liveBlocks, b.id)
	d.blocksLeft--
	if d.nextBlock < d.launch.GridDim && slot >= 0 {
		d.placeNext(b.sm, slot)
	}
}

// --- Env implementation (the detector-facing device interface) ---

// Config implements Env.
func (d *Device) Config() *Config { return &d.cfg }

// ShadowTx implements Env: an RDU-side L2/DRAM access at a partition.
func (d *Device) ShadowTx(part int, cycle int64, addr uint64, write bool) int64 {
	line := addr &^ uint64(d.cfg.SegmentBytes-1)
	return d.parts[part].Access(cycle, line, write, false, true)
}

// InstrTx implements Env: a demand global access from SM sm through
// the full L1 -> NoC -> L2/DRAM path (software instrumentation).
func (d *Device) InstrTx(smID int, cycle int64, addr uint64, write bool) int64 {
	s := d.sms[smID]
	seg := uint64(d.cfg.SegmentBytes)
	line := addr &^ (seg - 1)
	part := d.partitions.Of(line)
	res := s.l1.Access(line, write, cycle)
	if write {
		arrive := d.net.Send(part, cycle+1, int(seg))
		return d.parts[part].Access(arrive, line, true, false, false)
	}
	if res.Hit {
		return cycle + d.cfg.L1Latency
	}
	arrive := d.net.Send(part, cycle+d.cfg.L1Latency, 0)
	l2done := d.parts[part].Access(arrive, line, false, false, false)
	return d.net.Reply(part, l2done, int(seg))
}

// InstrAtomicTx implements Env: an atomic read-modify-write from SM
// smID, bypassing the L1 and serializing at the partition.
func (d *Device) InstrAtomicTx(smID int, cycle int64, addr uint64) int64 {
	s := d.sms[smID]
	seg := uint64(d.cfg.SegmentBytes)
	line := addr &^ (seg - 1)
	s.l1.Invalidate(line)
	part := d.partitions.Of(line)
	arrive := d.net.Send(part, cycle+1, 8)
	l2done := d.parts[part].Access(arrive, line, true, true, false)
	return d.net.Reply(part, l2done, 8)
}

// GlobalMemSize implements Env.
func (d *Device) GlobalMemSize() uint64 { return uint64(d.Global.Size()) }

// CurrentFenceID implements Env: the race-register-file lookup.
func (d *Device) CurrentFenceID(blockID, warpInBlock int) uint32 {
	if b, ok := d.liveBlocks[blockID]; ok {
		if warpInBlock < len(b.warps) {
			return b.warps[warpInBlock].fenceID
		}
		return 0
	}
	if ids, ok := d.fenceHist[blockID]; ok && warpInBlock < len(ids) {
		return ids[warpInBlock]
	}
	return 0
}
