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
// hardware RDU, the software builds, either wrapped in another
// Recorder — with no device attached; a synthetic Env built from the
// journaled snapshot stands in. The journal's recorded fence responses
// are served back in order, so a detector configured like the recorded
// one reaches byte-identical verdicts. A damaged journal replays its
// longest intact prefix and reports the salvage; only an unreadable
// header or an encoding bug is an error.
//
// Replay reads the journal once, in order, through the Reader's
// buffer, and decodes each warp memory event into one reused event
// that it lends to det under gpu.WarpMemEvent's borrowed-event
// contract. Through a detector that asks for fence responses as the
// recorded one did, it holds one record of the journal at a time, or
// on the sharded engines' layout the rest of one kernel (see stream).
func Replay(src io.Reader, det gpu.Detector) (*ReplayResult, error) {
	s, err := newStream(src)
	if err != nil {
		return nil, err
	}
	return s.replay(det)
}

func (s *stream) replay(det gpu.Detector) (*ReplayResult, error) {
	if det == nil {
		det = gpu.NopDetector{}
	}
	res := &ReplayResult{}
	inKernel := false
	for rec := s.next(); rec != nil; rec = s.next() {
		switch rec.Type {
		case RecMeta:
			res.Meta = rec.Meta
		case RecKernelStart:
			if rec.Env == nil {
				return nil, fmt.Errorf("journal: kernel-start record without env snapshot")
			}
			res.Kernels++
			inKernel = true
			det.KernelStart(&replayEnv{snap: *rec.Env, fences: s}, rec.Kernel)
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
			// Fence responses are served through lookup; race records
			// are forensic annotations, not replay inputs.
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

	res.Salvage = s.jr.Salvage()
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

// stream reads a journal's records once, in order, for Replay, and
// serves its fence responses back to the replayed detector.
//
// A response is journaled after the event whose check asked for it
// (the recorder appends the event, then the detector's queries append
// theirs), so the detector asks before the replay has read it. The
// responses read but not yet served wait in a queue; when the
// detector asks with none waiting, the stream reads ahead to the next
// fence record and holds the raw payloads it passes until next
// replays them. It serves what a cursor over all the journal's fence
// records would. What it holds:
//   - a detector that queries as the recorded one did finds each
//     response in the very next record, so the stream holds no
//     payload and at most one response;
//   - journals written under the sharded detector engines of earlier
//     versions put a kernel's responses just before its kernel-end
//     record, so there it holds at most the rest of that kernel;
//   - a detector that queries where the recorded one did not can make
//     it read further ahead, to the journal's end at worst, holding
//     raw bytes; responses a detector never asks for stay queued, at
//     24 bytes each.
type stream struct {
	jr   *Reader
	dec  recordDecoder // decodes the records next returns
	peek recordDecoder // decodes the records readAhead passes
	held lookahead

	fences []fenceRec // read, and from served on not yet served
	served int
	latest map[fenceKey]uint32
}

func newStream(src io.Reader) (*stream, error) {
	jr, err := NewReader(src)
	if err != nil {
		return nil, err
	}
	return &stream{jr: jr, latest: map[fenceKey]uint32{}}, nil
}

// next returns the next record to replay, in storage reused by the
// following call, or nil at the end of the intact prefix.
func (s *stream) next() *Record {
	p, ok := s.held.pop()
	if !ok {
		var err error
		if p, err = s.jr.Next(); err != nil {
			return nil // clean EOF or salvage stop; both end the replay
		}
	}
	rec, err := s.dec.decode(p)
	if err != nil {
		// A CRC-intact but undecodable record: treat like a torn tail
		// and replay what came before it. Only a payload fresh from
		// the reader can get here; readAhead decoded the others.
		s.jr.Reject(err.Error())
		return nil
	}
	if rec.Type == RecFence {
		s.fences = append(s.fences, fenceRec{key: fenceKey{block: rec.Block, warp: rec.Warp}, id: rec.FenceID})
	}
	return rec
}

// lookup serves a CurrentFenceID query. A detector configured like
// the recorded one issues the exact same query sequence, so responses
// are consumed strictly in order. Replaying through a *different*
// detector may query off-sequence; then lookup falls back to the
// latest value it served for that (block, warp) — approximate, and
// documented as such, since fence-race classification is the only
// thing it shifts.
func (s *stream) lookup(block, warpInBlock int) uint32 {
	k := fenceKey{block: block, warp: warpInBlock}
	if s.served == len(s.fences) {
		s.fences, s.served = s.fences[:0], 0
		s.readAhead()
	}
	if s.served < len(s.fences) && s.fences[s.served].key == k {
		id := s.fences[s.served].id
		s.served++
		s.latest[k] = id
		return id
	}
	return s.latest[k]
}

// readAhead reads on to the next fence record and queues its
// response, keeping every payload it passes for next. It decodes the
// payloads it passes, so it stops where next will, at a record that
// does not decode, and never serves a response from beyond it.
func (s *stream) readAhead() {
	for {
		p, err := s.jr.Next()
		if err != nil {
			return
		}
		rec, err := s.peek.decode(p)
		if err != nil {
			s.jr.Reject(err.Error())
			return
		}
		if rec.Type == RecFence {
			s.fences = append(s.fences, fenceRec{key: fenceKey{block: rec.Block, warp: rec.Warp}, id: rec.FenceID})
			return
		}
		s.held.push(p)
	}
}

// lookahead holds the raw payloads readAhead passed, back to back,
// until next replays them in order.
type lookahead struct {
	buf  []byte
	ends []int // where each payload ends in buf
	head int   // payloads before head have been replayed
}

func (l *lookahead) push(p []byte) {
	l.buf = append(l.buf, p...)
	l.ends = append(l.ends, len(l.buf))
}

// pop returns the oldest payload held, valid until the next push.
func (l *lookahead) pop() ([]byte, bool) {
	if l.head == len(l.ends) {
		return nil, false
	}
	start := 0
	if l.head > 0 {
		start = l.ends[l.head-1]
	}
	p := l.buf[start:l.ends[l.head]]
	l.head++
	if l.head == len(l.ends) {
		l.buf, l.ends, l.head = l.buf[:0], l.ends[:0], 0
	}
	return p, true
}

// replayEnv implements gpu.Env from a journaled snapshot. Timing
// methods return fixed-latency completions: with no device attached
// there is nothing to contend with, and verdicts never read them.
type replayEnv struct {
	snap   EnvSnapshot
	fences *stream
}

// Config implements gpu.Env.
func (e *replayEnv) Config() *gpu.Config { return &e.snap.Config }

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
	var dc recordDecoder
	for {
		payload, err := r.Next()
		if err != nil {
			return nil, nil
		}
		rec, err := dc.decode(payload)
		if err != nil {
			return nil, nil
		}
		if rec.Type == RecMeta {
			return rec.Meta, nil
		}
	}
}
