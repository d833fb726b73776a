package harness

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"haccrg/internal/gpu"
	"haccrg/internal/isa"
	"haccrg/internal/journal"
)

// clobberer forwards every call to the detector chain it wraps and,
// once WarpMem has returned, overwrites the borrowed event and its
// Lanes backing array up to capacity, as the simulator's next
// instruction is free to. A detector that kept the event, a lane or
// the slice past the call reads garbage afterwards.
type clobberer struct{ gpu.Detector }

func (c clobberer) WarpMem(ev *gpu.WarpMemEvent) int64 {
	stall := c.Detector.WarpMem(ev)
	lanes := ev.Lanes[:cap(ev.Lanes)]
	for i := range lanes {
		lanes[i] = gpu.LaneAccess{
			Lane: -1, Tid: -1, GTid: -1, Addr: 0xdead_beef_dead_beef, Size: 0xff,
			AtomicSig: 0xffff, InCrit: true, L1Hit: true, L1Fill: -1, Arrival: -1,
		}
	}
	*ev = gpu.WarpMemEvent{
		Space: isa.SpaceLocal, Write: !ev.Write, Atomic: !ev.Atomic, PC: -1,
		SM: -1, Block: -1, WarpInBlock: -1, Kernel: "clobbered", Stmt: "clobbered",
		SyncID: 0xffff_ffff, FenceID: 0xffff_ffff, Cycle: -1,
		Lanes: lanes,
	}
	return stall
}

// Health forwards the wrapped chain's health report, which the device
// attaches to the launch stats the test compares.
func (c clobberer) Health() *gpu.DetectorHealth {
	if hr, ok := c.Detector.(gpu.HealthReporter); ok {
		return hr.Health()
	}
	return nil
}

// Inner exposes the wrapped chain, where a replay's verdict is read.
func (c clobberer) Inner() gpu.Detector { return c.Detector }

// TestBorrowedEventNotRetained runs every detector kind, journaled and
// traced, with and without a clobberer between the device and the
// chain. The simulator reuses one event and one lane array per SM, so
// a detector that retained either would see its findings, the cycles
// it charges, the journal it writes or the timeline rendered from that
// journal move; all must stay byte-identical. Replay lends its one
// decoded event the same way: each journal replays through the kind
// that recorded it, and the shared+global journals through every
// kind, with and without a clobberer, to the same result.
func TestBorrowedEventNotRetained(t *testing.T) {
	kinds := []DetectorKind{DetShared, DetGlobal, DetSharedGlobal, DetFig8, DetSoftware, DetGRace}
	found := map[DetectorKind]int{}
	for _, bench := range []string{"scan", "hist", "hash"} {
		for _, kind := range kinds {
			rc := RunConfig{Bench: bench, Detector: kind, GPU: testGPU()}
			run := func(wrap func(gpu.Detector) gpu.Detector) (*RunResult, []byte) {
				var jnl bytes.Buffer
				res, err := ExecContext(context.Background(), rc, ExecOptions{Record: &jnl, Trace: true, wrap: wrap})
				if err != nil {
					t.Fatalf("%s/%s: %v", bench, kind, err)
				}
				return res, jnl.Bytes()
			}
			want, wantJnl := run(nil)
			got, gotJnl := run(func(d gpu.Detector) gpu.Detector { return clobberer{d} })
			if !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Errorf("%s/%s: launch stats moved: %+v, want %+v", bench, kind, got.Stats, want.Stats)
			}
			if g, w := raceStrings(got), raceStrings(want); !reflect.DeepEqual(g, w) {
				t.Errorf("%s/%s: findings moved:\n%v\nwant\n%v", bench, kind, g, w)
			}
			if got.DetectorStats != want.DetectorStats || got.InstrStall != want.InstrStall || got.LogBytes != want.LogBytes {
				t.Errorf("%s/%s: detector counters moved", bench, kind)
			}
			if !bytes.Equal(gotJnl, wantJnl) {
				t.Errorf("%s/%s: journal bytes moved (%d, want %d)", bench, kind, len(gotJnl), len(wantJnl))
			}
			if got.Timeline != want.Timeline {
				t.Errorf("%s/%s: trace timeline moved", bench, kind)
			}
			found[kind] += len(want.Races)
			for _, rkind := range kinds {
				if rkind != kind && kind != DetSharedGlobal {
					continue
				}
				replay := func(wrap func(gpu.Detector) gpu.Detector) *journal.ReplayResult {
					det, _, err := DetectorForJournal(bytes.NewReader(wantJnl), rkind)
					if err != nil {
						t.Fatal(err)
					}
					res, err := journal.Replay(bytes.NewReader(wantJnl), wrap(det))
					if err != nil {
						t.Fatalf("%s/%s replayed through %s: %v", bench, kind, rkind, err)
					}
					return res
				}
				want := replay(func(d gpu.Detector) gpu.Detector { return d })
				got := replay(func(d gpu.Detector) gpu.Detector { return clobberer{d} })
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s replayed through %s: the result moved under a clobberer", bench, kind, rkind)
				}
				if rkind == kind && !want.Match {
					t.Errorf("%s/%s: replay through the recorded kind does not match", bench, kind)
				}
			}
		}
	}
	for _, kind := range kinds {
		if found[kind] == 0 {
			t.Errorf("%s found no races on any benchmark, so its findings were never compared", kind)
		}
	}
}

func raceStrings(res *RunResult) []string {
	out := make([]string, len(res.Races))
	for i, r := range res.Races {
		out[i] = r.String()
	}
	return out
}
