package main

import (
	"encoding/json"
	"os"
	"time"

	"haccrg/internal/gpu"
)

// timedDetector forwards every gpu.Detector call to inner and adds the
// wall time spent inside it to per-method accumulators. It also
// forwards Inner (gpu.NewDevice and core.RacesOf walk that chain for
// optional interfaces and race sources) and Health (the device
// type-asserts HealthReporter on the outermost detector), so wrapping
// a detector changes no finding, stat or simulated cycle.
type timedDetector struct {
	inner gpu.Detector

	warpMem time.Duration // WarpMem
	barrier time.Duration // Barrier and BlockStart: shared-shadow epoch resets
	kernel  time.Duration // KernelStart and KernelEnd
	calls   int64
}

func newTimedDetector(inner gpu.Detector) *timedDetector {
	return &timedDetector{inner: inner}
}

// busy is the total time spent inside the wrapped detector.
func (t *timedDetector) busy() time.Duration { return t.warpMem + t.barrier + t.kernel }

// Inner returns the wrapped detector.
func (t *timedDetector) Inner() gpu.Detector { return t.inner }

// Health forwards the wrapped detector's degradation report.
func (t *timedDetector) Health() *gpu.DetectorHealth {
	if hr, ok := t.inner.(gpu.HealthReporter); ok {
		return hr.Health()
	}
	return nil
}

// Name implements gpu.Detector.
func (t *timedDetector) Name() string { return t.inner.Name() }

// KernelStart implements gpu.Detector.
func (t *timedDetector) KernelStart(env gpu.Env, kernel string) {
	s := time.Now()
	t.inner.KernelStart(env, kernel)
	t.kernel += time.Since(s)
	t.calls++
}

// KernelEnd implements gpu.Detector.
func (t *timedDetector) KernelEnd() {
	s := time.Now()
	t.inner.KernelEnd()
	t.kernel += time.Since(s)
	t.calls++
}

// WarpMem implements gpu.Detector.
func (t *timedDetector) WarpMem(ev *gpu.WarpMemEvent) int64 {
	s := time.Now()
	stall := t.inner.WarpMem(ev)
	t.warpMem += time.Since(s)
	t.calls++
	return stall
}

// Barrier implements gpu.Detector.
func (t *timedDetector) Barrier(sm, block, sharedBase, sharedSize int, cycle int64) int64 {
	s := time.Now()
	stall := t.inner.Barrier(sm, block, sharedBase, sharedSize, cycle)
	t.barrier += time.Since(s)
	t.calls++
	return stall
}

// BlockStart implements gpu.Detector.
func (t *timedDetector) BlockStart(sm, sharedBase, sharedSize int) {
	s := time.Now()
	t.inner.BlockStart(sm, sharedBase, sharedSize)
	t.barrier += time.Since(s)
	t.calls++
}

// span is one layer's share of one benchmark run (or of one op). Spans
// that accumulate many short calls (the detector's, the uploads') keep
// the first call's start and the summed call time as Busy; a span
// covering one contiguous call has Busy = End - Start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Calls  int64  `json:"calls,omitempty"`
}

// tracer keeps spans in memory; write saves them at exit. It is used
// from the op goroutine only.
type tracer struct {
	epoch  time.Time
	op     int // op ID of new spans; -1 during set-up
	opSpan int // root span of the op being traced
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), op: -1, opSpan: -1} }

// begin opens a contiguous span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: t.op, Name: name, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	s := &t.spans[id]
	s.End = time.Since(t.epoch).Nanoseconds()
	s.Busy = s.End - s.Start
}

// add records an accumulated span: calls calls, the first starting at
// start, busy for d in total.
func (t *tracer) add(name string, parent int, start time.Time, d time.Duration, calls int64) int {
	st := start.Sub(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Op: t.op, Name: name,
		Start: st, End: st + d.Nanoseconds(), Busy: d.Nanoseconds(), Calls: calls,
	})
	return len(t.spans) - 1
}

// layerTimes sums, per op and span name, the busy and self time of
// every span. Self time is a span's busy time minus its children's.
func (t *tracer) layerTimes() map[int]map[string]layerTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Busy
		}
	}
	out := map[int]map[string]layerTime{}
	for i, s := range t.spans {
		m := out[s.Op]
		if m == nil {
			m = map[string]layerTime{}
			out[s.Op] = m
		}
		lt := m[s.Name]
		lt.busy += time.Duration(s.Busy)
		lt.self += time.Duration(s.Busy - child[i])
		m[s.Name] = lt
	}
	return out
}

type layerTime struct{ busy, self time.Duration }

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
