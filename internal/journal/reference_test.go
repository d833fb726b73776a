package journal

import (
	"fmt"
	"io"

	"haccrg/internal/gpu"
)

// replayReference is Replay as it was before it streamed: decode the
// whole journal into owned records, collect every fence response into
// one cursor, then replay. The exactness tests require Replay to
// return what it returns.
func replayReference(src io.Reader, det gpu.Detector) (*ReplayResult, error) {
	if det == nil {
		det = gpu.NopDetector{}
	}
	jr, err := NewReader(src)
	if err != nil {
		return nil, err
	}
	var recs []*Record
	fences := &refCursor{latest: map[fenceKey]uint32{}}
	for {
		payload, err := jr.Next()
		if err != nil {
			break
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			jr.Reject(err.Error())
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
	inKernel := false
	for _, rec := range recs {
		switch rec.Type {
		case RecMeta:
			res.Meta = rec.Meta
		case RecKernelStart:
			if rec.Env == nil {
				return nil, fmt.Errorf("journal: kernel-start record without env snapshot")
			}
			res.Kernels++
			inKernel = true
			det.KernelStart(refEnv{replayEnv: &replayEnv{snap: *rec.Env}, cur: fences}, rec.Kernel)
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
		case RecVerdict:
			res.Recorded = rec.Verdict
			if res.Recorded == nil {
				res.Recorded = []string{}
			}
		}
	}
	if inKernel {
		det.KernelEnd()
	}
	res.Replayed = VerdictOf(det)
	res.Match = res.Recorded != nil && equalVerdicts(res.Recorded, res.Replayed)
	return res, nil
}

// refCursor serves every fence response of the journal in order: the
// next one when its (block, warp) is the one asked for, else the
// latest served to the asker.
type refCursor struct {
	recs   []fenceRec
	next   int
	latest map[fenceKey]uint32
}

func (c *refCursor) lookup(block, warpInBlock int) uint32 {
	k := fenceKey{block: block, warp: warpInBlock}
	if c.next < len(c.recs) && c.recs[c.next].key == k {
		id := c.recs[c.next].id
		c.next++
		c.latest[k] = id
		return id
	}
	return c.latest[k]
}

// refEnv is Replay's Env with the reference cursor's responses.
type refEnv struct {
	*replayEnv
	cur *refCursor
}

func (e refEnv) CurrentFenceID(block, warpInBlock int) uint32 {
	return e.cur.lookup(block, warpInBlock)
}
