package core

import (
	"haccrg/internal/bloom"
	"haccrg/internal/fault"
	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// lineArrival pairs one distinct demand line with the latest lane
// arrival targeting it.
type lineArrival struct {
	line    uint64
	arrival int64
}

// laneAddr pairs one distinct lane byte address with the first lane
// (tid) that touched it within a warp instruction.
type laneAddr struct {
	addr uint64
	tid  int
}

// insertArrival records a lane's (line, arrival) in a slice kept
// sorted by line, retaining the maximum arrival per line. A warp has
// at most WarpSize lanes, so insertion sort into a reused buffer beats
// the map-plus-key-sort the hot path used to allocate — while visiting
// lines in the same ascending address order, which partition port and
// L2 state require for deterministic cycle counts.
func insertArrival(s []lineArrival, line uint64, arrival int64) []lineArrival {
	i := 0
	for ; i < len(s); i++ {
		if s[i].line == line {
			if arrival > s[i].arrival {
				s[i].arrival = arrival
			}
			return s
		}
		if s[i].line > line {
			break
		}
	}
	s = append(s, lineArrival{})
	copy(s[i+1:], s[i:])
	s[i] = lineArrival{line: line, arrival: arrival}
	return s
}

// insertLine records a distinct value in an ascending-sorted slice
// (the Figure 8 shadow-line working set; same determinism argument as
// insertArrival).
func insertLine(s []uint64, v uint64) []uint64 {
	i := 0
	for ; i < len(s); i++ {
		if s[i] == v {
			return s
		}
		if s[i] > v {
			break
		}
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// globalRDU runs the global-memory Race Detection Units for one warp
// instruction. Detection happens at the memory partitions where the
// coalesced transactions arrive; the RDU fetches the shadow entries
// covering the transaction through the partition's own L2/DRAM path
// (shadow traffic never blocks the warp but pollutes the L2 — the
// overhead mechanism of Figures 7 and 9).
func (d *Detector) globalRDU(ev *gpu.WarpMemEvent) int64 {
	gran := uint64(d.opt.GlobalGranularity)

	// Witness-seeded quarantine: a statically-proven racy granule
	// reports on first touch, before any filtering or fault hook, so
	// seeded findings are identical with and without fault plans.
	if d.seedPend != nil {
		d.fireSeeds(ev, gran)
	}

	// Statically-proven race-free site: the RDUs still fetch and write
	// back the shadow lines (an in-memory filter table would not stop
	// the hardware's traffic, and the L2/partition timing state is
	// order-sensitive), but every check — intra-warp WAW and the state
	// machine — is skipped.
	if d.pcFiltered(ev.PC) {
		if d.opt.ModelTraffic {
			d.modelGlobalTraffic(ev, gran)
		}
		d.stats.FilteredChecks += int64(len(ev.Lanes))
		return 0
	}

	if ev.Write || ev.Atomic {
		d.intraWarpWAW(ev, isa.SpaceGlobal, gran)
	}

	if d.opt.ModelTraffic {
		d.modelGlobalTraffic(ev, gran)
	}

	for i := range ev.Lanes {
		la := &ev.Lanes[i]
		part := -1
		sig := la.AtomicSig
		if d.inj != nil {
			// Each lane check queues at the partition its address maps
			// to; burst overflow drops the check, never the access.
			part = d.parts.Of(la.Addr)
			if !d.admit(fault.UnitGlobal, part, la.Arrival) {
				continue
			}
			sig = d.saturate(part, sig, la.InCrit)
		}
		d.stats.GlobalChecks++
		if ev.Atomic {
			continue // atomic operations are synchronization accesses
		}
		d.globalCheck(ev, la, sig, part, gran)
	}
	return 0
}

// fireSeeds reports every pending witness seed whose granule this warp
// instruction touches, in lane order (granules ascending within a
// straddling lane), then retires the seeds. The report carries the
// statically-proven pair as first accessor and the touching lane as
// second, at the touching pc, tagged StaticWitness.
func (d *Detector) fireSeeds(ev *gpu.WarpMemEvent, gran uint64) {
	for i := range ev.Lanes {
		la := &ev.Lanes[i]
		size := uint64(la.Size)
		if size == 0 {
			size = 1
		}
		g0 := la.Addr / gran
		g1 := (la.Addr + size - 1) / gran
		for g := g0; g <= g1; g++ {
			w, ok := d.seedPend[g]
			if !ok {
				continue
			}
			delete(d.seedPend, g)
			kind, cat := KindWAW, CatCrossBlock
			if w.Class == "same-block-waw" {
				cat = CatBarrier
			}
			d.reportProv("StaticWitness", isa.SpaceGlobal, kind, cat, ev.PC, ev.Stmt,
				g, la.Addr, w.Tid, w.Block, la.Tid, ev.Block, ev.Cycle)
			if len(d.seedPend) == 0 {
				d.seedPend = nil
				return
			}
		}
		if d.seedPend == nil {
			return
		}
	}
}

// modelGlobalTraffic injects the RDUs' shadow-memory traffic for one
// warp instruction: per distinct demand line, read the shadow lines
// covering its granule entries, plus one write for the updates.
func (d *Detector) modelGlobalTraffic(ev *gpu.WarpMemEvent, gran uint64) {
	seg := uint64(d.env.Config().SegmentBytes)
	arrivals := d.scratch.arrivals[:0]
	for i := range ev.Lanes {
		la := &ev.Lanes[i]
		arrivals = insertArrival(arrivals, la.Addr&^(seg-1), la.Arrival)
	}
	d.scratch.arrivals = arrivals
	// Partition port/L2 state makes transaction order matter, so the
	// lines are visited in sorted address order — arbitrary iteration
	// order would perturb cycle counts from run to run.
	for _, lr := range arrivals {
		line, arrival := lr.line, lr.arrival
		part := d.parts.Of(line)
		if d.inj != nil {
			arrival = d.spiked(fault.UnitGlobal, part, arrival)
		}
		// The slots of one demand line's granules span this many bytes.
		span := seg / gran * GlobalSlotBytes
		shadowAddr := GlobalSlotAddr(d.env.GlobalMemSize(), line/gran)
		for off := uint64(0); off < span; off += seg {
			d.env.ShadowTx(part, arrival, shadowAddr+off, false)
			d.stats.ShadowReads++
		}
		d.env.ShadowTx(part, arrival+1, shadowAddr, true)
		d.stats.ShadowWrites++
	}
}

// globalCheck applies the full HAccRG decision procedure to one lane
// access: sync-ID ordering, lockset priority, the happens-before state
// machine, fence-ID validation of RAW pairs, and the stale-L1 check.
// sig is the lane's lockset signature after any injected saturation
// (the caller-owned lane is never mutated). The entry's state lives in
// one packed meta word (packed.go), so the membership, same-thread and
// state tests below are mask/shift/compare ops on a register.
func (d *Detector) globalCheck(ev *gpu.WarpMemEvent, la *gpu.LaneAccess, sig bloom.Sig, part int, gran uint64) {
	g := la.Addr / gran
	write := ev.Write
	tid := uint16(la.Tid)

	if d.inj != nil && d.faultGlobal(part, g) {
		return // granule quarantined by the degradation policy
	}

	e := d.gshadow.entry(g)
	m := e.meta
	if m&gwPresent == 0 {
		// State 1: first access claims the entry; a protected access
		// stores its lockset, an unprotected one stores the null set
		// (cleared slots are all-zero, so sig needs no store here).
		m = gwPresent | gwPack(tid, uint32(ev.Block), uint16(ev.SM))
		if write {
			m |= gwM
			e.wcyc = ev.Cycle
		}
		e.meta = m
		e.sync = packSync(ev.SyncID, ev.FenceID)
		if la.InCrit {
			e.sig = sig
		}
		return
	}

	etid := uint16(m >> gwTid)
	ebid := uint32(m >> gwBid)
	sameBlock := ebid == uint32(ev.Block)
	sameThread := sameBlock && etid == tid
	sameWarp := d.opt.WarpAware && sameBlock && d.sameWarpID(int(etid), la.Tid)

	// Sync-ID ordering (Section IV-B): accesses from the entry's own
	// block with a newer sync ID are barrier-ordered after the
	// recorded access — refresh the entry, no race possible.
	if sameBlock && e.syncID() != ev.SyncID {
		claimEntry(e, ev, la, sig, write)
		return
	}

	// Lockset has priority in critical sections (Section III-B).
	if e.sig != 0 || la.InCrit {
		d.locksetCheck(e, ev, la, sig, g, write, sameThread, sameWarp)
		return
	}

	// Happens-before machine (Figure 3, with bid/sid extensions).
	switch m & (gwM | gwS) {
	case 0:
		// State 2: reads from one thread.
		if !write {
			if !sameThread && !sameWarp {
				e.meta = m | gwS
			}
			return
		}
		if sameThread || sameWarp {
			e.setWriter(tid, uint16(ev.SM), ev.FenceID, ev.Cycle)
			return
		}
		d.report(isa.SpaceGlobal, KindWAR, hbCategory(sameBlock), ev.PC, ev.Stmt, g, la.Addr,
			int(etid), int(ebid), la.Tid, ev.Block, ev.Cycle)
		claimEntry(e, ev, la, sig, true)

	case gwM:
		// State 3: written by the recorded thread.
		if sameThread || sameWarp {
			if write {
				e.setWriter(tid, uint16(ev.SM), ev.FenceID, ev.Cycle)
			}
			return
		}
		if write {
			d.report(isa.SpaceGlobal, KindWAW, hbCategory(sameBlock), ev.PC, ev.Stmt, g, la.Addr,
				int(etid), int(ebid), la.Tid, ev.Block, ev.Cycle)
			claimEntry(e, ev, la, sig, true)
			return
		}
		// RAW: the stale-L1 check first (a hit can return stale data
		// regardless of the producer's fence), then the fence-ID
		// comparison against the race register file.
		// A hit is stale only when the cached copy predates the write.
		if d.opt.DetectStaleL1 && la.L1Hit && uint16(m>>gwSid) != uint16(ev.SM) && la.L1Fill < e.wcyc {
			d.report(isa.SpaceGlobal, KindRAW, CatStaleL1, ev.PC, ev.Stmt, g, la.Addr,
				int(etid), int(ebid), la.Tid, ev.Block, ev.Cycle)
			claimEntry(e, ev, la, sig, false)
			return
		}
		d.stats.FenceLookups++
		if d.env.CurrentFenceID(int(ebid), d.warpOf(int(etid))) == e.fenceID() {
			// The producer has not fenced since its write: the
			// consumer may observe a partial update.
			cat := CatFence
			if sameBlock {
				cat = CatBarrier
			}
			d.report(isa.SpaceGlobal, KindRAW, cat, ev.PC, ev.Stmt, g, la.Addr,
				int(etid), int(ebid), la.Tid, ev.Block, ev.Cycle)
		}
		// Fenced or not, the consumer now owns the entry as a reader.
		claimEntry(e, ev, la, sig, false)

	default:
		// State 4: read by multiple warps/blocks (any state with S set,
		// including fault-corrupted M+S patterns — same treatment as
		// the struct encoding gave them).
		if !write {
			return
		}
		d.report(isa.SpaceGlobal, KindWAR, hbCategory(sameBlock), ev.PC, ev.Stmt, g, la.Addr,
			int(etid), int(ebid), la.Tid, ev.Block, ev.Cycle)
		claimEntry(e, ev, la, sig, true)
	}
}

// claimEntry refreshes a shadow entry with the current access (used
// after barrier-ordered handoffs, reported races, and safe
// consumptions). The write cycle is preserved on reads — only a write
// moves the stale-L1 horizon.
func claimEntry(e *packedGlobal, ev *gpu.WarpMemEvent, la *gpu.LaneAccess, sig bloom.Sig, write bool) {
	m := gwPresent | gwPack(uint16(la.Tid), uint32(ev.Block), uint16(ev.SM))
	if write {
		m |= gwM
		e.wcyc = ev.Cycle
	}
	e.meta = m
	e.sync = packSync(ev.SyncID, ev.FenceID)
	if la.InCrit {
		e.sig = sig
	} else {
		e.sig = 0
	}
}

// hbCategory labels a happens-before race: same-block races are
// missing barriers; cross-block races are the SCAN/KMEANS-style bugs.
func hbCategory(sameBlock bool) Category {
	if sameBlock {
		return CatBarrier
	}
	return CatCrossBlock
}

// locksetCheck implements Section III-B's two racy scenarios:
// disjoint locksets, and mixed protected/unprotected access.
func (d *Detector) locksetCheck(e *packedGlobal, ev *gpu.WarpMemEvent, la *gpu.LaneAccess, sig bloom.Sig,
	g uint64, write, sameThread, sameWarp bool) {
	m := e.meta
	entryModified := m&gwM != 0
	racy := entryModified || write
	entryProtected := e.sig != 0
	inCrit := la.InCrit
	d.observeFill(e.sig, sig)

	if sameThread {
		// Same thread: refresh.
		if write {
			e.meta = m | gwM
			e.sync = e.sync&((1<<32)-1) | uint64(ev.FenceID)<<32
			e.wcyc = ev.Cycle
		}
		if inCrit {
			if entryProtected {
				e.sig = d.bloom.Intersect(e.sig, sig)
			} else {
				e.sig = sig
			}
		}
		return
	}

	etid := uint16(m >> gwTid)
	ebid := uint32(m >> gwBid)

	switch {
	case entryProtected && inCrit:
		// Both protected: race iff the lockset intersection is null.
		if racy && !d.bloom.MayIntersect(e.sig, sig) && !sameWarp {
			d.report(isa.SpaceGlobal, locksetKind(entryModified, write), CatLockset, ev.PC, ev.Stmt, g, la.Addr,
				int(etid), int(ebid), la.Tid, ev.Block, ev.Cycle)
			claimEntry(e, ev, la, sig, write)
			return
		}
		// The intersection — the set of locks that protected every
		// access so far — is what the shadow entry keeps.
		e.sig = d.bloom.Intersect(e.sig, sig)
		if write {
			e.meta = m&^(gwTidField|gwBidField|gwSidField) | gwM |
				gwPack(uint16(la.Tid), uint32(ev.Block), uint16(ev.SM))
			e.sync = e.sync&((1<<32)-1) | uint64(ev.FenceID)<<32
			e.wcyc = ev.Cycle
		}

	default:
		// Mixed protected/unprotected access from different threads.
		if racy && !sameWarp {
			d.report(isa.SpaceGlobal, locksetKind(entryModified, write), CatLockset, ev.PC, ev.Stmt, g, la.Addr,
				int(etid), int(ebid), la.Tid, ev.Block, ev.Cycle)
		}
		claimEntry(e, ev, la, sig, write)
	}
}

// locksetKind labels a critical-section race by its access pair.
func locksetKind(entryModified, write bool) Kind {
	switch {
	case entryModified && write:
		return KindWAW
	case entryModified:
		return KindRAW
	default:
		return KindWAR
	}
}
