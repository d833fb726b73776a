package core

import "haccrg/internal/bloom"

// This file is the single source of truth for HAccRG's shadow-word
// encodings. The paper stores shared-memory shadow entries as 12-bit
// words beside the banks and global-memory entries as 52-bit words in
// device memory; the simulator used to model both as structs of bools
// and ints, which made the hot-path state check a chain of field loads
// and the fault-corruption layout (health.go) and the hardware cost
// model (cost.go) two hand-maintained copies of the same bit layout.
// Both entries are now bit-packed words: the architectural field
// offsets below drive the state machines, the corruption model, and
// the Section VI-C2 cost arithmetic, so none of the three can drift.

// Architectural field widths (bits) of the paper's shadow formats
// (Table I machine: 1024 threads/SM, 8 blocks/SM, 30 SMs, 10-bit
// logical clocks). The corruption model flips and sticks bits at
// exactly these positions regardless of the simulated config — stuck
// cells are physical, their geometry does not scale with the launch.
const (
	archTidBits   = 10 // thread id within its block
	archBidBits   = 12 // global block id
	archSidBits   = 5  // SM id
	archSyncBits  = 10 // barrier logical clock
	archFenceBits = 10 // fence logical clock
	archSigBits   = 3  // atomic-ID signature bits stored in-entry

	// Bit offsets within the architectural global word: M, S, then the
	// fields above in order.
	archTidShift   = 2
	archBidShift   = archTidShift + archTidBits     // 12
	archSidShift   = archBidShift + archBidBits     // 24
	archSyncShift  = archSidShift + archSidBits     // 29
	archFenceShift = archSyncShift + archSyncBits   // 39
	archSigShift   = archFenceShift + archFenceBits // 49

	// sharedEntryBits and globalEntryBits are the architectural word
	// sizes: the 12-bit shared entry (M, S, 10-bit tid) and the 52-bit
	// global entry. cost.go derives its storage arithmetic from these.
	sharedEntryBits = 2 + archTidBits            // 12
	globalEntryBits = archSigShift + archSigBits // 52
)

// The shadow-memory map, which every model moving shadow lines through
// device memory addresses by: global granule g's slot is at
// GlobalSlotAddr(GlobalMemSize(), g), and Figure 8's per-SM shared
// tiles follow the last one (Detector.sharedSlotAddr). A slot pads its
// entry to a power of two, 8 bytes for 52 bits and 2 for 12; Table
// IV's GlobalShadowBytes counts 7-byte packed entries instead.
const (
	GlobalSlotBytes = 8
	SharedSlotBytes = 2
)

// GlobalSlotAddr returns global granule g's slot address on a device
// with memSize bytes of global memory, where the global shadow starts.
func GlobalSlotAddr(memSize, g uint64) uint64 { return memSize + g*GlobalSlotBytes }

// sharedWord is one shared-memory shadow entry: the paper's 12-bit
// format bit-packed into a uint16 — bit 0 = modified, bit 1 = shared,
// bits 2.. = tid. M=S=1 encodes "no prior access" (fresh): no granule
// is simultaneously exclusively-written and read-shared, so the
// combination is free for the reset state and every state test is a
// mask/compare on the word.
type sharedWord uint16

const (
	swM     sharedWord = 1 << 0
	swS     sharedWord = 1 << 1
	swFresh sharedWord = swM | swS
	swTid              = 2 // tid shift
)

// resetShared puts every entry into the no-access state (the reset
// value is NOT zero: zero decodes as "read by thread 0").
func resetShared(es []sharedWord) {
	for i := range es {
		es[i] = swFresh
	}
}

// sharedCheckWord applies the Figure 3 happens-before state machine to
// one packed entry: (M,S) = (1,1) fresh, (0,0) read by a single
// thread, (1,0) modified, (0,1) read-shared. It returns the updated
// word plus, when the access races with the recorded one, the report
// kind and the recorded thread. A pure function of the word and the
// access.
func (d *Detector) sharedCheckWord(w sharedWord, tid uint16, write bool) (nw sharedWord, kind Kind, firstTid uint16, raced bool) {
	// State 1: no prior access claims the entry.
	if w&swFresh == swFresh {
		nw = sharedWord(tid) << swTid
		if write {
			nw |= swM
		}
		return nw, 0, 0, false
	}
	etid := uint16(w >> swTid)
	sameThread := etid == tid
	sameWarp := d.opt.WarpAware && d.sameWarpID(int(etid), int(tid))

	switch w & swFresh {
	case 0:
		// State 2: reads from a single thread so far.
		if !write {
			if !sameThread && !sameWarp {
				w |= swS
			}
			return w, 0, 0, false
		}
		nw = sharedWord(tid)<<swTid | swM
		if sameThread || sameWarp {
			return nw, 0, 0, false
		}
		return nw, KindWAR, etid, true

	case swM:
		// State 3: written by thread etid.
		if sameThread || sameWarp {
			if write {
				return sharedWord(tid)<<swTid | swM, 0, 0, false
			}
			return w, 0, 0, false
		}
		if write {
			return sharedWord(tid)<<swTid | swM, KindWAW, etid, true
		}
		return w, KindRAW, etid, true

	default:
		// State 4: read by multiple warps (or a corrupted M+S pattern,
		// which the struct encoding also treated as read-shared).
		if !write {
			return w, 0, 0, false
		}
		return sharedWord(tid)<<swTid | swM, KindWAR, etid, true
	}
}

// sameWarpID reports whether two thread IDs fall in the same warp —
// a shift/compare on the hot path for power-of-two warp sizes (see
// Detector.warpShift), division otherwise.
func (d *Detector) sameWarpID(a, b int) bool {
	if s := d.warpShift; s >= 0 {
		return a>>uint(s) == b>>uint(s)
	}
	return a/d.warpSize == b/d.warpSize
}

// warpOf maps a thread ID to its warp index within the block.
func (d *Detector) warpOf(tid int) int {
	if s := d.warpShift; s >= 0 {
		return tid >> uint(s)
	}
	return tid / d.warpSize
}

// packedGlobal is one global-memory shadow entry with the
// architectural state bit-packed into a single word. The simulator
// widens the fields past their architectural widths (tid 16, bid 32,
// sid 13 bits) so no launch geometry silently truncates — findings
// must never depend on the packing — but the hot-path membership and
// same-thread/same-block tests are single mask/shift/compare ops on
// meta. sync pairs the two logical clocks in one word; sig and wcyc
// are the simulator-side companions the architectural word does not
// model bit-exactly (the full signature, and the write cycle the
// stale-L1 check compares against).
type packedGlobal struct {
	meta uint64    // M | S<<1 | present<<2 | tid<<3 | bid<<19 | sid<<51
	sync uint64    // syncID | fenceID<<32
	sig  bloom.Sig // atomic-ID lockset signature (0 = null set)
	wcyc int64     // issue cycle of the recorded write (stale-L1 check)
}

const (
	gwM       uint64 = 1 << 0
	gwS       uint64 = 1 << 1
	gwPresent uint64 = 1 << 2
	gwTid            = 3  // tid shift (16 bits)
	gwBid            = 19 // bid shift (32 bits)
	gwSid            = 51 // sid shift (13 bits)

	gwTidField uint64 = ((1 << 16) - 1) << gwTid
	gwBidField uint64 = ((1 << 32) - 1) << gwBid
	gwSidField uint64 = ((1 << 13) - 1) << gwSid
)

// gwPack assembles the identity fields of a meta word.
func gwPack(tid uint16, bid uint32, sid uint16) uint64 {
	return uint64(tid)<<gwTid | uint64(bid)<<gwBid | uint64(sid)<<gwSid
}

// packSync pairs the logical clocks.
func packSync(syncID, fenceID uint32) uint64 {
	return uint64(syncID) | uint64(fenceID)<<32
}

func (e *packedGlobal) syncID() uint32  { return uint32(e.sync) }
func (e *packedGlobal) fenceID() uint32 { return uint32(e.sync >> 32) }

// setWriter refreshes the entry for a same-thread/same-warp write
// (state 2 and 3 refreshes): new writer identity, fence clock and
// write cycle; block, sync ID and signature keep their values.
func (e *packedGlobal) setWriter(tid, sid uint16, fenceID uint32, cycle int64) {
	e.meta = e.meta&^(gwTidField|gwSidField) | uint64(tid)<<gwTid | uint64(sid)<<gwSid | gwM
	e.sync = e.sync&((1<<32)-1) | uint64(fenceID)<<32
	e.wcyc = cycle
}
