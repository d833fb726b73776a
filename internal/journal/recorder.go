package journal

import (
	"io"
	"sort"

	"haccrg/internal/core"
	"haccrg/internal/gpu"
)

// Recorder implements gpu.Detector: it journals every event it
// forwards to the wrapped detector, including the CurrentFenceID
// responses the detector reads from the device, so the journal alone
// determines the detector's verdicts.
//
// Place the Recorder outermost in a wrapping chain (it must observe
// the same events the inner chain does, and it snapshots the Env the
// device hands to KernelStart). The detector interface returns no
// errors, so write failures are sticky: the first one is remembered,
// recording stops, and Err reports it after the run.
type Recorder struct {
	inner gpu.Detector
	w     *Writer

	kernel   string
	raceBase int
	scratch  []byte
	err      error
}

// NewRecorder starts a journal on w (writing the file header) and
// wraps inner (nil for a record-only run with detection off).
func NewRecorder(w io.Writer, inner gpu.Detector) (*Recorder, error) {
	if inner == nil {
		inner = gpu.NopDetector{}
	}
	jw, err := NewWriter(w)
	if err != nil {
		return nil, err
	}
	return &Recorder{inner: inner, w: jw}, nil
}

// SetMeta journals the run description; call it once, before the run,
// so haccrg-replay can rebuild an equivalent detector.
func (r *Recorder) SetMeta(m *Meta) error {
	r.append(&Record{Type: RecMeta, Meta: m})
	return r.err
}

// Inner returns the wrapped detector (for chain unwrapping).
func (r *Recorder) Inner() gpu.Detector { return r.inner }

// Err returns the first write or encoding failure, if any.
func (r *Recorder) Err() error { return r.err }

// Health forwards the inner detector's degradation report, so
// journaling a detector does not hide it from LaunchStats.
func (r *Recorder) Health() *gpu.DetectorHealth {
	if hr, ok := r.inner.(gpu.HealthReporter); ok {
		return hr.Health()
	}
	return nil
}

func (r *Recorder) append(rec *Record) {
	if r.err != nil {
		return
	}
	b, err := AppendRecord(r.scratch[:0], rec)
	if err != nil {
		r.err = err
		return
	}
	r.scratch = b[:0]
	if err := r.w.Append(b); err != nil {
		r.err = err
	}
}

// Name implements gpu.Detector.
func (r *Recorder) Name() string { return "journal(" + r.inner.Name() + ")" }

// KernelStart implements gpu.Detector: it snapshots the device
// parameters and hands the inner chain a fence-recording Env.
func (r *Recorder) KernelStart(env gpu.Env, kernel string) {
	r.kernel = kernel
	r.append(&Record{
		Type:   RecKernelStart,
		Kernel: kernel,
		Env:    &EnvSnapshot{Config: *env.Config(), GlobalMemSize: env.GlobalMemSize()},
	})
	r.inner.KernelStart(&recordingEnv{Env: env, rec: r}, kernel)
}

// KernelEnd implements gpu.Detector and seals the kernel with a
// verdict record: the cumulative sorted race findings, the ground
// truth Replay's differential oracle compares against.
func (r *Recorder) KernelEnd() {
	r.inner.KernelEnd()
	r.recordNewRaces(0)
	r.append(&Record{Type: RecKernelEnd, Kernel: r.kernel})
	r.append(&Record{Type: RecVerdict, Verdict: VerdictOf(r.inner)})
}

// BlockStart implements gpu.Detector.
func (r *Recorder) BlockStart(sm, sharedBase, sharedSize int) {
	r.append(&Record{Type: RecBlockStart, SM: sm, SharedBase: sharedBase, SharedSize: sharedSize})
	r.inner.BlockStart(sm, sharedBase, sharedSize)
}

// WarpMem implements gpu.Detector. The event is journaled before the
// inner detector runs, so the fence responses its verdict consumed
// follow it in the stream — the order Replay reproduces.
func (r *Recorder) WarpMem(ev *gpu.WarpMemEvent) int64 {
	r.append(&Record{Type: RecWarpMem, Ev: ev})
	stall := r.inner.WarpMem(ev)
	r.recordNewRaces(ev.Cycle)
	return stall
}

// Barrier implements gpu.Detector.
func (r *Recorder) Barrier(sm, block, sharedBase, sharedSize int, cycle int64) int64 {
	r.append(&Record{
		Type: RecBarrier, SM: sm, Block: block,
		SharedBase: sharedBase, SharedSize: sharedSize, Cycle: cycle,
	})
	stall := r.inner.Barrier(sm, block, sharedBase, sharedSize, cycle)
	r.recordNewRaces(cycle)
	return stall
}

// recordNewRaces journals race verdicts the inner chain reached since
// the last check, stamped with their detection cycle.
func (r *Recorder) recordNewRaces(cycle int64) {
	races := core.RacesOf(r.inner)
	for ; r.raceBase < len(races); r.raceBase++ {
		rc := races[r.raceBase]
		c := rc.Cycle
		if c == 0 {
			c = cycle
		}
		r.append(&Record{Type: RecRace, Cycle: c, Race: rc.String()})
	}
}

// recordingEnv wraps the device Env, journaling every CurrentFenceID
// response. The fence clock is the only device state a verdict reads
// outside the event stream; with the responses in-stream, replay is a
// pure function of the journal.
type recordingEnv struct {
	gpu.Env
	rec *Recorder
}

func (e *recordingEnv) CurrentFenceID(block, warpInBlock int) uint32 {
	id := e.Env.CurrentFenceID(block, warpInBlock)
	e.rec.append(&Record{Type: RecFence, Block: block, Warp: warpInBlock, FenceID: id})
	return id
}

// VerdictOf renders a detector chain's cumulative race findings in
// canonical form: each race's String(), sorted. Two runs found the
// same races if and only if their verdicts are byte-identical.
func VerdictOf(det gpu.Detector) []string {
	races := core.RacesOf(det)
	out := make([]string, len(races))
	for i, rc := range races {
		out[i] = rc.String()
	}
	sort.Strings(out)
	return out
}
