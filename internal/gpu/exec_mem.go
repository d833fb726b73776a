package gpu

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"haccrg/internal/isa"
	"haccrg/internal/mem"
)

// memInstr executes one LD/ST/ATOM warp instruction: functional effect
// at issue, timing through the shared-memory banks or the
// L1/NoC/partition path, plus the race-detection event.
func (s *sm) memInstr(w *warp, in *isa.Instr, execMask uint64, cycle int64, k *Kernel, st *LaunchStats) {
	issueDone := cycle + s.dev.cfg.IssueInterval()

	switch in.Space {
	case isa.SpaceParam:
		for m := execMask; m != 0; m &= m - 1 {
			r := &w.regs[bits.TrailingZeros64(m)]
			addr := r.Regs[in.SrcA] + uint64(in.Imm)
			idx := int(addr / 8)
			if in.Op != isa.OpLd || idx >= len(k.Params) {
				s.fail(fmt.Errorf("gpu: kernel %q pc %d: bad param access (idx %d of %d)",
					k.Name, w.pc, idx, len(k.Params)))
				continue
			}
			r.Regs[in.Dst] = k.Params[idx]
		}
		w.readyAt = issueDone
		return

	case isa.SpaceShared:
		s.sharedInstr(w, in, execMask, cycle, k, st)
		return

	case isa.SpaceGlobal:
		s.globalInstr(w, in, execMask, cycle, k, st, false)
		return

	case isa.SpaceLocal:
		s.globalInstr(w, in, execMask, cycle, k, st, true)
		return
	}
}

// event resets the SM's reusable race-detection event to warp w's
// instruction in at the given cycle, with no lane accesses yet.
func (s *sm) event(w *warp, in *isa.Instr, space isa.Space, cycle int64, k *Kernel) *WarpMemEvent {
	b := w.block
	s.ev = WarpMemEvent{
		Space:       space,
		Write:       in.Op == isa.OpSt,
		Atomic:      in.Op == isa.OpAtom,
		PC:          w.pc,
		SM:          s.id,
		Block:       b.id,
		WarpInBlock: w.inBlock,
		Kernel:      k.Name,
		Stmt:        in.Line,
		SyncID:      b.syncID,
		FenceID:     w.fenceID,
		Cycle:       cycle,
		Lanes:       s.ev.Lanes[:0],
	}
	return &s.ev
}

// sharedInstr handles shared-memory accesses: bank-conflict timing and
// the shared-memory RDU event. Shared atomics serialize per address.
func (s *sm) sharedInstr(w *warp, in *isa.Instr, execMask uint64, cycle int64, k *Kernel, st *LaunchStats) {
	b := w.block
	ev := s.event(w, in, isa.SpaceShared, cycle, k)
	tileAddrs := s.flat[:0]
	for m := execMask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		r, lk := &w.regs[l], &w.locks[l]
		rel := r.Regs[in.SrcA] + uint64(in.Imm)
		if !isa.InWindow(rel, in.Size, b.sharedSize) {
			s.fail(fmt.Errorf("gpu: kernel %q pc %d: shared access %#x+%d outside block's %d bytes",
				k.Name, w.pc, rel, in.Size, b.sharedSize))
			continue
		}
		tile := uint64(b.sharedBase) + rel
		tileAddrs = append(tileAddrs, tile)
		if err := s.sharedLane(in, r, tile); err != nil {
			s.fail(err)
			continue
		}
		ev.Lanes = append(ev.Lanes, LaneAccess{
			Lane:      l,
			Tid:       w.tidOf(l),
			GTid:      b.id*b.dim + w.tidOf(l),
			Addr:      tile,
			Size:      in.Size,
			AtomicSig: lk.sig,
			InCrit:    lk.critDepth > 0,
			Arrival:   cycle,
		})
	}
	s.flat = tileAddrs

	switch in.Op {
	case isa.OpLd:
		st.SharedReads += int64(len(ev.Lanes))
	case isa.OpSt:
		st.SharedWrites += int64(len(ev.Lanes))
	case isa.OpAtom:
		st.SharedAtomics += int64(len(ev.Lanes))
	}

	conflicts := s.shared.ConflictCyclesFor(tileAddrs)
	lat := s.dev.cfg.SharedLatency + conflicts - 1
	if in.Op == isa.OpAtom {
		lat += conflicts // read-modify-write pass
	}
	stall := s.dev.detector.WarpMem(ev)
	st.DetectorStall += stall
	w.readyAt = cycle + s.dev.cfg.IssueInterval() + lat + stall
}

// sharedLane applies the functional effect of one lane's shared access.
func (s *sm) sharedLane(in *isa.Instr, r *isa.State, tile uint64) error {
	m := s.shared.Mem
	switch in.Op {
	case isa.OpLd:
		return loadReg(m, in, r, tile)
	case isa.OpSt:
		return storeReg(m, in, r, tile)
	case isa.OpAtom:
		return atomicApply(m, in, r, tile)
	}
	return nil
}

// globalInstr handles device-memory accesses (global and local
// spaces): coalescing, L1, interconnect, partitions, and the global
// RDU event for global-space accesses.
func (s *sm) globalInstr(w *warp, in *isa.Instr, execMask uint64, cycle int64, k *Kernel, st *LaunchStats, local bool) {
	dev := s.dev
	b := w.block

	addrs, flat := s.addrs[:0], s.flat[:0]
	for m := execMask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		a := w.regs[l].Regs[in.SrcA] + uint64(in.Imm)
		if local {
			if !isa.InWindow(a, in.Size, dev.cfg.LocalBytesPerThread) {
				s.fail(fmt.Errorf("gpu: kernel %q pc %d: local access %#x+%d outside the thread's %d bytes",
					k.Name, w.pc, a, in.Size, dev.cfg.LocalBytesPerThread))
				continue
			}
			gtid := uint64(b.id*b.dim + w.tidOf(l))
			a = dev.localBase + gtid*uint64(dev.cfg.LocalBytesPerThread) + a
		}
		addrs = append(addrs, laneAddr{l, a})
		flat = append(flat, a)
	}
	s.addrs, s.flat = addrs, flat
	if len(addrs) == 0 {
		w.readyAt = cycle + dev.cfg.IssueInterval()
		return
	}

	// Functional effect, in lane order (atomics thereby serialize
	// deterministically within the warp).
	for _, la := range addrs {
		r := &w.regs[la.lane]
		var err error
		switch in.Op {
		case isa.OpLd:
			err = loadReg(dev.Global, in, r, la.addr)
		case isa.OpSt:
			err = storeReg(dev.Global, in, r, la.addr)
		case isa.OpAtom:
			err = atomicApply(dev.Global, in, r, la.addr)
		}
		if err != nil {
			s.fail(fmt.Errorf("gpu: kernel %q pc %d: %w", k.Name, w.pc, err))
		}
	}

	if local {
		st.LocalAccesses += int64(len(addrs))
	} else {
		switch in.Op {
		case isa.OpLd:
			st.GlobalReads += int64(len(addrs))
		case isa.OpSt:
			st.GlobalWrites += int64(len(addrs))
		case isa.OpAtom:
			st.GlobalAtomics += int64(len(addrs))
		}
		b.globalSinceBar = true
	}

	// Timing. Atomics issue one partition transaction per unique
	// address; loads/stores coalesce into segments. lines lists them
	// in first-touch order, which is the order the transactions issue
	// in, and lstate[i] records what line i's lanes report to the RDU.
	//
	// Accesses inside a critical section behave as volatile (bypass
	// the non-coherent L1): correct GPU lock code must declare the
	// protected data volatile or it breaks under L1 caching, as the
	// paper's Section IV-B discussion notes.
	volatileCS := true
	for _, la := range addrs {
		if w.locks[la.lane].critDepth == 0 {
			volatileCS = false
			break
		}
	}
	seg := dev.cfg.SegmentBytes
	issueDone := cycle + dev.cfg.IssueInterval()
	maxDone := issueDone
	lines, lstate := s.lines[:0], s.lstate[:0]

	if in.Op == isa.OpAtom {
		for _, a := range flat {
			if slices.Contains(lines, a) {
				continue // serviced by the same transaction
			}
			lineAddr := a &^ uint64(seg-1)
			s.l1.Invalidate(lineAddr) // atomics operate at the partition
			part := dev.partitions.Of(a)
			arrive := dev.net.Send(part, cycle+1, 8)
			l2done := dev.parts[part].Access(arrive, lineAddr, true, true, false)
			done := dev.net.Reply(part, l2done, 8)
			lines = append(lines, a)
			lstate = append(lstate, lineState{arrival: arrive})
			maxDone = max(maxDone, done)
		}
		w.readyAt = maxDone
	} else {
		write := in.Op == isa.OpSt
		lines = mem.Coalesce(lines, flat, int(in.Size), seg)
		for _, line := range lines {
			part := dev.partitions.Of(line)
			if volatileCS && !write {
				s.l1.Invalidate(line) // volatile load: straight to L2
				arrive := dev.net.Send(part, cycle+dev.cfg.L1Latency, 0)
				l2done := dev.parts[part].Access(arrive, line, false, false, false)
				done := dev.net.Reply(part, l2done, seg)
				lstate = append(lstate, lineState{arrival: arrive})
				maxDone = max(maxDone, done)
				continue
			}
			res := s.l1.Access(line, write, cycle)
			if write {
				// Write-through, no-allocate: the store always goes to
				// the partition; it does not block the warp.
				arrive := dev.net.Send(part, cycle+1, seg)
				done := dev.parts[part].Access(arrive, line, true, false, false)
				lstate = append(lstate, lineState{hit: res.Hit, arrival: arrive})
				w.storeDone = max(w.storeDone, done)
				continue
			}
			if res.Hit {
				done := cycle + dev.cfg.L1Latency
				ls := lineState{hit: true, arrival: done}
				if f, ok := s.l1.FillStamp(line); ok {
					ls.fill = f
				}
				lstate = append(lstate, ls)
				maxDone = max(maxDone, done)
				continue
			}
			// MSHR merge: an in-flight fill of the same line serves
			// this miss too, without a duplicate transaction.
			if fill, inflight := s.mshr[line]; inflight && fill > cycle {
				lstate = append(lstate, lineState{arrival: fill})
				maxDone = max(maxDone, fill)
				continue
			}
			arrive := dev.net.Send(part, cycle+dev.cfg.L1Latency, 0)
			l2done := dev.parts[part].Access(arrive, line, false, false, false)
			done := dev.net.Reply(part, l2done, seg)
			s.mshr[line] = done
			if len(s.mshr) > 4*dev.cfg.MaxThreadsPerSM {
				for l, f := range s.mshr {
					if f <= cycle {
						delete(s.mshr, l)
					}
				}
			}
			lstate = append(lstate, lineState{arrival: arrive})
			maxDone = max(maxDone, done)
		}
		if write {
			w.readyAt = issueDone
		} else {
			w.readyAt = maxDone
		}
	}
	s.lines, s.lstate = lines, lstate

	if local {
		return // per-thread memory cannot race
	}

	// Race-detection event: one lane access per active lane, carrying
	// the metadata the paper's request packets transport. A lane
	// reports the state of the transaction that serviced its first
	// byte: its atomic address, or the line that byte lies in.
	ev := s.event(w, in, isa.SpaceGlobal, cycle, k)
	for _, la := range addrs {
		lk := &w.locks[la.lane]
		key := la.addr
		if in.Op != isa.OpAtom {
			key = la.addr &^ uint64(seg-1)
		}
		ls := &lstate[slices.Index(lines, key)]
		ev.Lanes = append(ev.Lanes, LaneAccess{
			Lane:      la.lane,
			Tid:       w.tidOf(la.lane),
			GTid:      b.id*b.dim + w.tidOf(la.lane),
			Addr:      la.addr,
			Size:      in.Size,
			AtomicSig: lk.sig,
			InCrit:    lk.critDepth > 0,
			L1Hit:     ls.hit,
			L1Fill:    ls.fill,
			Arrival:   ls.arrival,
		})
	}
	stall := dev.detector.WarpMem(ev)
	st.DetectorStall += stall
	if stall > 0 {
		w.readyAt += stall
	}
}

// loadReg performs a lane load into the destination register.
func loadReg(m *mem.Memory, in *isa.Instr, r *isa.State, addr uint64) error {
	if in.Float && in.Size == 4 {
		f, err := m.LoadF32(addr)
		if err != nil {
			return err
		}
		r.Regs[in.Dst] = math.Float64bits(f)
		return nil
	}
	v, err := m.Load(addr, int(in.Size))
	if err != nil {
		return err
	}
	r.Regs[in.Dst] = v
	return nil
}

// storeReg performs a lane store from the source register.
func storeReg(m *mem.Memory, in *isa.Instr, r *isa.State, addr uint64) error {
	if in.Float && in.Size == 4 {
		return m.StoreF32(addr, math.Float64frombits(r.Regs[in.SrcB]))
	}
	return m.Store(addr, int(in.Size), r.Regs[in.SrcB])
}

// atomicApply performs the read-modify-write of an atomic for one
// lane; the old value lands in the destination register.
func atomicApply(m *mem.Memory, in *isa.Instr, r *isa.State, addr uint64) error {
	old, err := m.Load(addr, int(in.Size))
	if err != nil {
		return err
	}
	if err := m.Store(addr, int(in.Size), isa.Atomic(in.AOp, old, r.Regs[in.SrcB], r.Regs[in.SrcC])); err != nil {
		return err
	}
	r.Regs[in.Dst] = old
	return nil
}
