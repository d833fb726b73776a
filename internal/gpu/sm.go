package gpu

import (
	"fmt"
	"math"
	"math/bits"

	"haccrg/internal/isa"
	"haccrg/internal/mem"
)

// block is a resident thread-block (CTA) on an SM.
type block struct {
	id  int // global block index (bid)
	dim int // threads
	sm  *sm

	warps []*warp

	sharedBase int // offset of this block's slice in the SM shared tile
	sharedSize int

	syncID         uint32 // barrier logical clock (paper Section IV-B)
	globalSinceBar bool   // gate sync-ID increments, per the paper's optimization

	arrived  int // warps waiting at the current barrier
	liveWarp int // warps not yet done
}

// sm is one streaming multiprocessor.
type sm struct {
	id  int
	dev *Device

	// shared, l1, mshr and the instruction scratch below are built at
	// the SM's first block (build): an SM that hosts none never issues,
	// so it never touches them (DESIGN.md, "Idle SMs build nothing").
	shared *mem.Shared
	l1     *mem.Cache

	blocks    []*block  // resident blocks (slot-indexed; nil when free)
	slotWarps [][]*warp // each slot's warps, reused by every block placed there
	warps     []*warp   // flattened resident warps for scheduling
	rr        int       // round-robin pointer
	issueFree int64     // next cycle the issue pipeline is free
	// nextIssue caches earliestReady. Only this SM's own issue changes
	// its warps, their readyAt or issueFree, so the scheduler rescans
	// it after the SM issues and at launch, and never otherwise
	// (DESIGN.md, "Scheduler step").
	nextIssue int64

	// mshr merges concurrent misses to the same line: a second warp
	// missing on a line already in flight waits for the outstanding
	// fill instead of issuing a duplicate transaction.
	mshr map[uint64]int64

	// Scratch for warp memory instructions, reused from one to the
	// next so that the steady state allocates nothing. ev is lent to
	// the detector under WarpMemEvent's borrowed-event contract. The
	// Env callbacks a detector makes inside WarpMem (InstrTx,
	// InstrAtomicTx, ShadowTx) must not touch any of these fields.
	ev     WarpMemEvent
	addrs  []laneAddr  // active lanes' byte addresses, in lane order
	flat   []uint64    // the same addresses alone
	lines  []uint64    // coalesced lines, or an atomic's distinct addresses
	lstate []lineState // timing of lines[i], matched by position

	pendingErr error
}

// laneAddr is one active lane's byte address.
type laneAddr struct {
	lane int
	addr uint64
}

// lineState is what the RDU event reports for the lanes of one
// transaction: whether it hit the L1, when the hit line was last
// filled, and when the access reaches the RDU.
type lineState struct {
	hit     bool
	fill    int64
	arrival int64
}

func newSM(id int, dev *Device) *sm {
	return &sm{
		id:        id,
		dev:       dev,
		blocks:    make([]*block, dev.cfg.MaxBlocksPerSM),
		slotWarps: make([][]*warp, dev.cfg.MaxBlocksPerSM),
	}
}

// built reports whether the SM has built its caches and scratch.
func (s *sm) built() bool { return s.l1 != nil }

// build allocates the SM's shared tile (unbacked until place covers
// it), L1, MSHRs and instruction scratch, once. A late-built L1 equals
// a flushed one: Flush zeroes every line, and LRU compares stamps only
// within a set.
func (s *sm) build() {
	if s.built() {
		return
	}
	ws := s.dev.cfg.WarpSize
	s.shared = mem.NewShared(s.dev.cfg.Shared)
	s.l1 = mem.MustNewCache(s.dev.cfg.L1)
	s.mshr = make(map[uint64]int64)
	s.ev = WarpMemEvent{Lanes: make([]LaneAccess, 0, ws)}
	s.addrs = make([]laneAddr, 0, ws)
	s.flat = make([]uint64, 0, ws)
	// An access can straddle a segment boundary, so a warp touches up
	// to two lines per lane.
	s.lines = make([]uint64, 0, 2*ws)
	s.lstate = make([]lineState, 0, 2*ws)
}

// place installs a block into a residency slot, on the warps of the
// block that last held the slot; only a slot that needs more warps
// than it has allocates. The SM's first block builds it, and the tile
// is backed up to the end of the block's window.
func (s *sm) place(slot int, bid int, k *Kernel, startCycle int64) {
	s.build()
	ws := s.dev.cfg.WarpSize
	nw := (k.BlockDim + ws - 1) / ws
	b := &block{
		id:         bid,
		dim:        k.BlockDim,
		sm:         s,
		sharedBase: slot * k.SharedBytes,
		sharedSize: k.SharedBytes,
		liveWarp:   nw,
	}
	if k.SharedBytes > 0 {
		s.shared.Cover(b.sharedBase + k.SharedBytes)
		s.shared.Clear(b.sharedBase, k.SharedBytes)
	}
	s.dev.detector.BlockStart(s.id, b.sharedBase, k.SharedBytes)
	for len(s.slotWarps[slot]) < nw {
		s.slotWarps[slot] = append(s.slotWarps[slot], new(warp))
	}
	b.warps = s.slotWarps[slot][:nw]
	for wi, w := range b.warps {
		w.reset(b, wi, ws, startCycle)
	}
	s.warps = append(s.warps, b.warps...)
	s.blocks[slot] = b
}

// retire removes a finished block and returns its slot.
func (s *sm) retire(b *block) int {
	slot := -1
	for i, rb := range s.blocks {
		if rb == b {
			s.blocks[i] = nil
			slot = i
		}
	}
	live := s.warps[:0]
	for _, w := range s.warps {
		if w.block != b {
			live = append(live, w)
		}
	}
	s.warps = live
	if s.rr >= len(s.warps) {
		s.rr = 0
	}
	return slot
}

// earliestReady returns the soonest cycle at which this SM could issue,
// or math.MaxInt64 if no warp is runnable.
func (s *sm) earliestReady() int64 {
	earliest := int64(math.MaxInt64)
	for _, w := range s.warps {
		if w.state != warpReady {
			continue
		}
		t := w.readyAt
		if t < earliest {
			earliest = t
		}
	}
	if earliest == math.MaxInt64 {
		return earliest
	}
	if s.issueFree > earliest {
		earliest = s.issueFree
	}
	return earliest
}

// issue issues one warp instruction at cycle, the SM's next issue
// cycle: its issue pipeline is free and a ready warp is due.
func (s *sm) issue(cycle int64, k *Kernel, st *LaunchStats) {
	s.exec(s.pick(cycle), cycle, k, st)
	s.issueFree = cycle + s.dev.cfg.IssueInterval()
}

// pick selects the next warp under the configured scheduling policy.
func (s *sm) pick(cycle int64) *warp {
	n := len(s.warps)
	switch s.dev.cfg.Scheduler {
	case SchedGTO:
		// Greedy: stay on the last-issued warp while it remains ready.
		if s.rr < n {
			if w := s.warps[s.rr]; w.state == warpReady && w.readyAt <= cycle {
				return w
			}
		}
		// Then oldest: scan in residency order (oldest blocks first).
		for i := 0; i < n; i++ {
			w := s.warps[i]
			if w.state == warpReady && w.readyAt <= cycle {
				s.rr = i
				return w
			}
		}
		return nil
	default: // round robin
		for i := 0; i < n; i++ {
			idx := (s.rr + i) % n
			w := s.warps[idx]
			if w.state != warpReady || w.readyAt > cycle {
				continue
			}
			s.rr = (idx + 1) % n
			return w
		}
		return nil
	}
}

// exec executes one instruction of warp w at the given cycle: full
// functional effect plus timing classification.
func (s *sm) exec(w *warp, cycle int64, k *Kernel, st *LaunchStats) {
	w.reconverge()
	if w.state != warpReady { // reconvergence cannot block, but stay safe
		return
	}
	if w.pc >= len(k.Prog.Code) {
		s.fail(fmt.Errorf("gpu: kernel %q: warp ran off the end (pc %d)", k.Name, w.pc))
		w.state = warpDone
		s.blockWarpDone(w)
		return
	}
	in := &k.Prog.Code[w.pc]
	execMask := w.guardMask(in)
	st.WarpInstrs++
	st.ThreadInstrs += int64(bits.OnesCount64(execMask))
	issueDone := cycle + s.dev.cfg.IssueInterval()

	switch in.Op {
	case isa.OpBra:
		if w.branch(in, execMask) {
			st.Divergences++
		}
		w.readyAt = issueDone
		return

	case isa.OpExit:
		w.exit(execMask)
		if w.state == warpDone {
			s.blockWarpDone(w)
		} else {
			w.readyAt = issueDone
		}
		return

	case isa.OpBar:
		w.pc++
		s.barrier(w, cycle, st)
		return

	case isa.OpMembar:
		w.fenceID++
		st.Fences++
		done := issueDone + s.dev.cfg.FenceLatency
		if w.storeDone > done {
			done = w.storeDone
		}
		w.readyAt = done
		w.pc++
		return

	case isa.OpAcqMark:
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			lk := &w.locks[l]
			lk.sig = s.dev.cfg.Bloom.Add(lk.sig, w.regs[l].Regs[in.SrcA])
			lk.critDepth++
		}
		w.readyAt = issueDone
		w.pc++
		return

	case isa.OpRelMark:
		for m := execMask; m != 0; m &= m - 1 {
			lk := &w.locks[bits.TrailingZeros64(m)]
			if lk.critDepth > 0 {
				lk.critDepth--
			}
			if lk.critDepth == 0 {
				lk.sig = 0 // whole-signature clear, as in the paper
			}
		}
		w.readyAt = issueDone
		w.pc++
		return

	case isa.OpLd, isa.OpSt, isa.OpAtom:
		s.memInstr(w, in, execMask, cycle, k, st)
		w.pc++
		return
	}

	// Plain ALU / SFU instruction, once over the warp.
	isa.ExecLanes(in, w.regs, execMask, isa.Coord{
		Tid: w.tidOf(0), Ntid: w.block.dim, Ctaid: w.block.id, Nctaid: k.GridDim, WarpSize: len(w.regs),
	})
	lat := s.dev.cfg.IssueInterval()
	switch in.Op {
	case isa.OpFDiv, isa.OpFSqrt, isa.OpFExp, isa.OpFLog, isa.OpFSin, isa.OpFCos:
		lat = s.dev.cfg.SFULatency
	}
	w.readyAt = cycle + lat
	w.pc++
}

// blockWarpDone bookkeeps a warp's completion; retires the block when
// all of its warps are done, releasing any warps stuck at a barrier
// (a barrier with exited warps releases when remaining warps arrive —
// kernels in this suite exit only at the end, so this is a safety
// valve, matching CUDA's undefined-but-not-hung behaviour).
func (s *sm) blockWarpDone(w *warp) {
	b := w.block
	b.liveWarp--
	if b.liveWarp == 0 {
		slot := s.retire(b)
		s.dev.blockFinished(b, slot)
		return
	}
	if b.arrived >= b.liveWarp {
		s.releaseBarrier(b, w.readyAt, nil)
	}
}

// barrier handles a warp arriving at a block-wide barrier.
func (s *sm) barrier(w *warp, cycle int64, st *LaunchStats) {
	b := w.block
	w.state = warpAtBarrier
	w.readyAt = cycle + s.dev.cfg.IssueInterval()
	b.arrived++
	if b.arrived >= b.liveWarp {
		st.Barriers++
		release := cycle + s.dev.cfg.IssueInterval()
		// Sync-ID increment, gated on global-memory activity since the
		// last barrier (the paper's optimization keeping sync IDs small).
		if b.globalSinceBar || s.dev.cfg.AlwaysBumpSyncID {
			b.syncID++
			b.globalSinceBar = false
		}
		stall := s.dev.detector.Barrier(s.id, b.id, b.sharedBase, b.sharedSize, cycle)
		st.DetectorStall += stall
		s.releaseBarrier(b, release+stall, st)
	}
}

func (s *sm) releaseBarrier(b *block, at int64, _ *LaunchStats) {
	b.arrived = 0
	for _, w := range b.warps {
		if w.state == warpAtBarrier {
			w.state = warpReady
			if w.readyAt < at {
				w.readyAt = at
			}
		}
	}
}

func (s *sm) fail(err error) {
	if s.pendingErr == nil {
		s.pendingErr = err
	}
}
