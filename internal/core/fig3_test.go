package core

// Table-driven reproduction of the paper's Figure 3: the shadow-entry
// state machine. Each case drives the shared-memory RDU through an
// access sequence and checks the reported race (or its absence) and
// the resulting shadow state. Thread ids are chosen so that "other
// thread" cases split into same-warp (suppressed) and cross-warp
// (reported) variants, covering the warp-aware refinement of
// Section III-A.

import (
	"testing"

	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// access is one scripted step: thread tid reads or writes granule 0.
type access struct {
	tid   int
	write bool
}

// fig3Case drives accesses and expects the given races in order.
type fig3Case struct {
	name     string
	accs     []access
	expected []Kind // reported races, in order (empty = none)
}

func runFig3(t *testing.T, tc fig3Case) {
	t.Helper()
	opt := DefaultOptions()
	opt.Global = false
	opt.DetectStaleL1 = false
	opt.SharedGranularity = 4
	opt.ModelTraffic = false
	d := MustNew(opt)
	env := newFakeEnv()
	d.KernelStart(env, "fig3")
	for _, a := range tc.accs {
		ev := &gpu.WarpMemEvent{
			Space: isa.SpaceShared, Write: a.write,
			SM: 0, Block: 0, WarpInBlock: a.tid / 32,
			Lanes: []gpu.LaneAccess{{Lane: a.tid % 32, Tid: a.tid, Addr: 0, Size: 4}},
		}
		d.WarpMem(ev)
	}
	races := d.Races()
	if len(races) != len(tc.expected) {
		t.Fatalf("%s: %d races, want %d (%v)", tc.name, len(races), len(tc.expected), races)
	}
	for i, want := range tc.expected {
		if races[i].Kind != want {
			t.Fatalf("%s: race %d is %v, want %v", tc.name, i, races[i].Kind, want)
		}
	}
}

// Threads: 0 and 1 share warp 0; 40 lives in warp 1; 70 in warp 2.
func TestFigure3StateMachine(t *testing.T) {
	cases := []fig3Case{
		// State 1 -> State 2 (first access a read).
		{"first-read-sets-owner", []access{{0, false}}, nil},
		// State 1 -> State 3 (first access a write).
		{"first-write-sets-modified", []access{{0, true}}, nil},
		// The same from a thread outside warp 0: a shadow tile built at
		// its first touch starts in State 1 for every thread.
		{"first-read-other-warp", []access{{40, false}}, nil},
		{"first-write-other-warp", []access{{40, true}}, nil},

		// State 2 transitions.
		{"state2-read-same-thread", []access{{0, false}, {0, false}}, nil},
		{"state2-read-same-warp", []access{{0, false}, {1, false}}, nil},
		{"state2-read-other-warp-sets-shared", []access{{0, false}, {40, false}}, nil},
		{"state2-write-same-thread", []access{{0, false}, {0, true}}, nil},
		{"state2-write-same-warp", []access{{0, false}, {1, true}}, nil},
		{"state2-write-other-warp-WAR", []access{{0, false}, {40, true}}, []Kind{KindWAR}},

		// State 3 transitions.
		{"state3-read-same-thread", []access{{0, true}, {0, false}}, nil},
		{"state3-read-same-warp", []access{{0, true}, {1, false}}, nil},
		{"state3-read-other-warp-RAW", []access{{0, true}, {40, false}}, []Kind{KindRAW}},
		{"state3-write-same-thread", []access{{0, true}, {0, true}}, nil},
		{"state3-write-same-warp", []access{{0, true}, {1, true}}, nil},
		{"state3-write-other-warp-WAW", []access{{0, true}, {40, true}}, []Kind{KindWAW}},

		// State 4 (read by multiple warps).
		{"state4-reads-stay-silent", []access{{0, false}, {40, false}, {70, false}}, nil},
		{"state4-any-write-WAR", []access{{0, false}, {40, false}, {0, true}}, []Kind{KindWAR}},
		{"state4-foreign-write-WAR", []access{{0, false}, {40, false}, {70, true}}, []Kind{KindWAR}},

		// Post-race ownership: after a reported WAW the writer owns the
		// entry, so its own re-read is silent but a third warp's read
		// races again.
		{"post-race-claim", []access{{0, true}, {40, true}, {40, false}}, []Kind{KindWAW}},
		{"post-race-new-reader-RAW", []access{{0, true}, {40, true}, {70, false}}, []Kind{KindWAW, KindRAW}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { runFig3(t, tc) })
	}
}

// TestFigure3BarrierResets: the barrier invalidation returns every
// entry to State 1, so the same cross-warp pattern is silent after a
// barrier and racy without one.
func TestFigure3BarrierResets(t *testing.T) {
	opt := DefaultOptions()
	opt.Global = false
	opt.DetectStaleL1 = false
	opt.SharedGranularity = 4
	opt.ModelTraffic = false
	d := MustNew(opt)
	env := newFakeEnv()
	d.KernelStart(env, "fig3-bar")
	mk := func(tid int, write bool) *gpu.WarpMemEvent {
		return &gpu.WarpMemEvent{
			Space: isa.SpaceShared, Write: write, SM: 0, Block: 0,
			Lanes: []gpu.LaneAccess{{Lane: tid % 32, Tid: tid, Addr: 8, Size: 4}},
		}
	}
	d.WarpMem(mk(0, true))
	d.Barrier(0, 0, 0, 1024, 100)
	d.WarpMem(mk(40, false))
	if len(d.Races()) != 0 {
		t.Fatalf("barrier did not reset the state machine: %v", d.Races())
	}
	// Same pattern without the barrier races (a fresh barrier first
	// clears the reader state the previous phase left behind).
	d.Barrier(0, 0, 0, 1024, 200)
	d.WarpMem(mk(0, true))
	d.WarpMem(mk(70, false))
	if len(d.Races()) != 1 {
		t.Fatalf("unbarriered RAW not reported: %v", d.Races())
	}
}

// TestFigure3IntraWarpInstructionWAW: the one intra-warp case the
// paper does flag — two lanes of a single instruction writing the same
// address, caught before the request issues.
func TestFigure3IntraWarpInstructionWAW(t *testing.T) {
	opt := DefaultOptions()
	opt.Global = false
	opt.DetectStaleL1 = false
	opt.SharedGranularity = 4
	opt.ModelTraffic = false
	d := MustNew(opt)
	d.KernelStart(newFakeEnv(), "iw")
	ev := &gpu.WarpMemEvent{
		Space: isa.SpaceShared, Write: true, SM: 0, Block: 0,
		Lanes: []gpu.LaneAccess{
			{Lane: 3, Tid: 3, Addr: 16, Size: 4},
			{Lane: 9, Tid: 9, Addr: 16, Size: 4},
		},
	}
	d.WarpMem(ev)
	found := false
	for _, r := range d.Races() {
		if r.Category == CatIntraWarp && r.Kind == KindWAW {
			found = true
		}
	}
	if !found {
		t.Fatalf("intra-warp same-address WAW not reported: %v", d.Races())
	}
	// Different addresses within the same granule must NOT trigger it.
	d2 := MustNew(opt)
	d2.KernelStart(newFakeEnv(), "iw2")
	opt.SharedGranularity = 64
	ev2 := &gpu.WarpMemEvent{
		Space: isa.SpaceShared, Write: true, SM: 0, Block: 0,
		Lanes: []gpu.LaneAccess{
			{Lane: 3, Tid: 3, Addr: 16, Size: 4},
			{Lane: 9, Tid: 9, Addr: 20, Size: 4},
		},
	}
	d2.WarpMem(ev2)
	for _, r := range d2.Races() {
		if r.Category == CatIntraWarp {
			t.Fatalf("granule-sharing lanes falsely flagged as intra-warp WAW: %v", r)
		}
	}
}
