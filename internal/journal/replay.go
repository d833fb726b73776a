package journal

import (
	"fmt"
	"io"

	"haccrg/internal/gpu"
)

// ReplayResult reports an offline replay: what the journal held, what
// the recorded run concluded, and what the replayed detector
// concluded over the same event stream.
type ReplayResult struct {
	// Salvage describes how much of the journal was intact.
	Salvage Salvage
	// Meta is the journaled run description (nil if the journal
	// predates the meta record or was truncated before it).
	Meta *Meta
	// Kernels and MemEvents count replayed kernel launches and warp
	// memory events.
	Kernels   int
	MemEvents int

	// Recorded is the live run's final verdict (nil when the journal
	// was truncated before any kernel completed — a crashed run).
	Recorded []string
	// Replayed is the replayed detector's final verdict.
	Replayed []string
	// Match is true when Recorded exists and Replayed equals it byte
	// for byte — the replay-equals-live invariant.
	Match bool
}

// Replay feeds a journal back through det — any gpu.Detector: the
// hardware RDU, the software builds, a tracing chain — with no device
// attached; a synthetic Env built from the journaled snapshot stands
// in. The journal's recorded fence responses are served back in
// order, so a detector configured like the recorded one reaches
// byte-identical verdicts. A damaged journal replays its longest
// intact prefix and reports the salvage; only an unreadable header or
// an encoding bug is an error.
func Replay(src io.Reader, det gpu.Detector) (*ReplayResult, error) {
	if det == nil {
		det = gpu.NopDetector{}
	}
	jr, err := NewReader(src)
	if err != nil {
		return nil, err
	}

	// Decode the whole journal first: the fence-response cursor must
	// span records that appear *after* the event that consumes them
	// (responses are journaled as the inner detector queries, mid
	// event), and journals written by earlier versions whose sharded
	// engine logged a kernel's fence responses just before its
	// kernel-end record. The cursor serves responses in journal order
	// regardless of where they sit.
	var recs []*Record
	fences := &fenceCursor{latest: map[fenceKey]uint32{}}
	for {
		payload, err := jr.Next()
		if err != nil {
			break // clean EOF or salvage stop; both end the scan
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			// A CRC-intact but undecodable record: treat like a torn
			// tail — replay what came before it.
			s := jr.Salvage()
			s.Truncated = true
			s.Reason = err.Error()
			jr.salvage = s
			break
		}
		recs = append(recs, rec)
		if rec.Type == RecFence {
			fences.recs = append(fences.recs, fenceRec{
				key: fenceKey{block: rec.Block, warp: rec.Warp}, id: rec.FenceID,
			})
		}
	}

	res := &ReplayResult{Salvage: jr.Salvage()}
	var env *replayEnv
	inKernel := false
	for _, rec := range recs {
		switch rec.Type {
		case RecMeta:
			res.Meta = rec.Meta
		case RecKernelStart:
			if rec.Env == nil {
				return nil, fmt.Errorf("journal: kernel-start record without env snapshot")
			}
			env = &replayEnv{snap: *rec.Env, fences: fences}
			res.Kernels++
			inKernel = true
			det.KernelStart(env, rec.Kernel)
		case RecKernelEnd:
			if inKernel {
				det.KernelEnd()
				inKernel = false
			}
		case RecBlockStart:
			if inKernel {
				det.BlockStart(rec.SM, rec.SharedBase, rec.SharedSize)
			}
		case RecBarrier:
			if inKernel {
				det.Barrier(rec.SM, rec.Block, rec.SharedBase, rec.SharedSize, rec.Cycle)
			}
		case RecWarpMem:
			if inKernel {
				res.MemEvents++
				det.WarpMem(rec.Ev)
			}
		case RecFence, RecRace:
			// Fence responses are consumed through the cursor; race
			// records are forensic annotations, not replay inputs.
		case RecVerdict:
			// An empty verdict (zero races) is still a verdict; keep
			// Recorded non-nil so it is compared, not skipped.
			res.Recorded = rec.Verdict
			if res.Recorded == nil {
				res.Recorded = []string{}
			}
		}
	}
	// A journal truncated mid-kernel never saw KernelEnd; close the
	// detector so its verdict is well-defined for forensics.
	if inKernel {
		det.KernelEnd()
	}

	res.Replayed = VerdictOf(det)
	res.Match = res.Recorded != nil && equalVerdicts(res.Recorded, res.Replayed)
	return res, nil
}

func equalVerdicts(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

type fenceKey struct {
	block, warp int
}

type fenceRec struct {
	key fenceKey
	id  uint32
}

// fenceCursor serves recorded CurrentFenceID responses back to the
// replayed detector. A detector configured like the recorded one
// issues the exact same query sequence, so responses are consumed
// strictly in order. Replaying through a *different* detector may
// query off-sequence; then the cursor falls back to the latest value
// it served for that (block, warp) — approximate, and documented as
// such, since fence-race classification is the only thing it shifts.
type fenceCursor struct {
	recs   []fenceRec
	next   int
	latest map[fenceKey]uint32
}

func (c *fenceCursor) lookup(block, warpInBlock int) uint32 {
	k := fenceKey{block: block, warp: warpInBlock}
	if c.next < len(c.recs) && c.recs[c.next].key == k {
		id := c.recs[c.next].id
		c.next++
		c.latest[k] = id
		return id
	}
	return c.latest[k]
}

// replayEnv implements gpu.Env from a journaled snapshot. Timing
// methods return fixed-latency completions: with no device attached
// there is nothing to contend with, and verdicts never read them.
type replayEnv struct {
	snap   EnvSnapshot
	fences *fenceCursor
}

// Config implements gpu.Env.
func (e *replayEnv) Config() *gpu.Config { return &e.snap.Config }

// PartitionFor implements gpu.Env with the device's line-interleaved
// mapping.
func (e *replayEnv) PartitionFor(addr uint64) int {
	return int((addr / uint64(e.snap.Config.SegmentBytes)) % uint64(e.snap.Config.NumPartitions))
}

// ShadowTx implements gpu.Env (fixed L2-latency completion).
func (e *replayEnv) ShadowTx(part int, cycle int64, addr uint64, write bool) int64 {
	return cycle + e.snap.Config.Partition.L2Latency
}

// InstrTx implements gpu.Env (fixed L1-latency completion).
func (e *replayEnv) InstrTx(sm int, cycle int64, addr uint64, write bool) int64 {
	return cycle + e.snap.Config.L1Latency
}

// InstrAtomicTx implements gpu.Env (fixed atomic-latency completion).
func (e *replayEnv) InstrAtomicTx(sm int, cycle int64, addr uint64) int64 {
	return cycle + e.snap.Config.Partition.AtomicLatency
}

// ShadowBase implements gpu.Env.
func (e *replayEnv) ShadowBase() uint64 { return e.snap.GlobalMemSize }

// GlobalMemSize implements gpu.Env.
func (e *replayEnv) GlobalMemSize() uint64 { return e.snap.GlobalMemSize }

// CurrentFenceID implements gpu.Env from the journaled responses.
func (e *replayEnv) CurrentFenceID(block, warpInBlock int) uint32 {
	return e.fences.lookup(block, warpInBlock)
}

// ReadMeta scans a journal for its meta record. It returns nil (and no
// error) when no meta record survived — replay still works, just
// without the recorded run description. Only an unreadable header is
// an error.
func ReadMeta(src io.Reader) (*Meta, error) {
	r, err := NewReader(src)
	if err != nil {
		return nil, err
	}
	for {
		payload, err := r.Next()
		if err != nil {
			return nil, nil
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return nil, nil
		}
		if rec.Type == RecMeta {
			return rec.Meta, nil
		}
	}
}
