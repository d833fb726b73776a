package journal

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// fenceProbe logs every call a replay makes into it and asks for a
// fence response on every event (its own warp's) and barrier (warp 0
// of the block), wherever the recorded detector did or did not: the
// streaming replay must serve it what the reference serves.
type fenceProbe struct {
	env    gpu.Env
	log    []string
	served []uint32
}

func (p *fenceProbe) Name() string { return "fence-probe" }

func (p *fenceProbe) KernelStart(env gpu.Env, kernel string) {
	p.env = env
	p.log = append(p.log, fmt.Sprintf("start %s %+v", kernel, *env.Config()))
}

func (p *fenceProbe) KernelEnd() { p.log = append(p.log, "end") }

func (p *fenceProbe) WarpMem(ev *gpu.WarpMemEvent) int64 {
	id := p.env.CurrentFenceID(ev.Block, ev.WarpInBlock)
	p.served = append(p.served, id)
	p.log = append(p.log, fmt.Sprintf("mem %+v fence %d", *ev, id))
	return 0
}

func (p *fenceProbe) Barrier(sm, block, sharedBase, sharedSize int, cycle int64) int64 {
	id := p.env.CurrentFenceID(block, 0)
	p.served = append(p.served, id)
	p.log = append(p.log, fmt.Sprintf("bar %d %d %d %d %d fence %d", sm, block, sharedBase, sharedSize, cycle, id))
	return 0
}

func (p *fenceProbe) BlockStart(sm, sharedBase, sharedSize int) {
	p.log = append(p.log, fmt.Sprintf("block %d %d %d", sm, sharedBase, sharedSize))
}

// smallJournal is a two-kernel journal small enough to cut at every
// byte: the first kernel has its fence responses inline, after the
// events that asked for them, the second at its end, as the sharded
// engines of earlier versions wrote them.
func smallJournal(t testing.TB) []byte {
	t.Helper()
	env := &EnvSnapshot{Config: gpu.TestConfig(), GlobalMemSize: 1 << 20}
	ev := func(block, warp int, write bool, addr uint64) *gpu.WarpMemEvent {
		e := &gpu.WarpMemEvent{
			Space: isa.SpaceGlobal, Write: write, PC: 4 * block, SM: block % 2,
			Block: block, WarpInBlock: warp, Kernel: "k", Stmt: "x[i] = y",
			SyncID: 1, FenceID: uint32(warp), Cycle: int64(100 * (block + 1)),
		}
		for l := 0; l < 4; l++ {
			e.Lanes = append(e.Lanes, gpu.LaneAccess{
				Lane: l, Tid: 32*warp + l, GTid: 64*block + 32*warp + l,
				Addr: addr + 4*uint64(l), Size: 4, Arrival: int64(l),
			})
		}
		return e
	}
	recs := []*Record{
		{Type: RecMeta, Meta: &Meta{Bench: "small", Detector: "shared+global"}},
		{Type: RecKernelStart, Kernel: "inline", Env: env},
		{Type: RecBlockStart, SM: 0, SharedSize: 256},
		{Type: RecWarpMem, Ev: ev(0, 0, true, 0x100)},
		{Type: RecFence, Block: 0, Warp: 0, FenceID: 1},
		{Type: RecWarpMem, Ev: ev(1, 0, false, 0x100)},
		{Type: RecFence, Block: 1, Warp: 0, FenceID: 2},
		{Type: RecBarrier, SM: 0, Block: 0, SharedSize: 256, Cycle: 40},
		{Type: RecRace, Cycle: 41, Race: "race a"},
		{Type: RecKernelEnd, Kernel: "inline"},
		{Type: RecVerdict, Verdict: []string{"race a"}},
		{Type: RecKernelStart, Kernel: "kernel-end", Env: env},
		{Type: RecWarpMem, Ev: ev(0, 1, true, 0x200)},
		{Type: RecWarpMem, Ev: ev(2, 0, false, 0x200)},
		{Type: RecBarrier, SM: 1, Block: 2, SharedSize: 256, Cycle: 90},
		{Type: RecFence, Block: 0, Warp: 1, FenceID: 3},
		{Type: RecFence, Block: 2, Warp: 0, FenceID: 4},
		{Type: RecKernelEnd, Kernel: "kernel-end"},
		{Type: RecVerdict, Verdict: []string{"race a"}},
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		b, err := AppendRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// sameReplay replays data through a fence probe, by Replay and by the
// reference, and reports how they differ: in error, in result, or in
// any call or fence response the probe saw. Empty means identical.
func sameReplay(data []byte) string {
	var got, want fenceProbe
	gres, gerr := Replay(bytes.NewReader(data), &got)
	wres, werr := replayReference(bytes.NewReader(data), &want)
	switch {
	case (gerr == nil) != (werr == nil):
		return fmt.Sprintf("error %v, reference %v", gerr, werr)
	case !reflect.DeepEqual(gres, wres):
		return fmt.Sprintf("result %+v, reference %+v", gres, wres)
	case !reflect.DeepEqual(got.log, want.log):
		for i := range got.log {
			if i >= len(want.log) || got.log[i] != want.log[i] {
				return fmt.Sprintf("call %d differs: %q", i, got.log[i])
			}
		}
		return fmt.Sprintf("%d calls, reference %d", len(got.log), len(want.log))
	}
	return ""
}

// TestReplayEveryCutMatchesReference cuts a journal at every byte: the
// streaming replay of each prefix makes the same calls, serves the same
// fence responses and returns the same result as the reference.
func TestReplayEveryCutMatchesReference(t *testing.T) {
	data := smallJournal(t)
	// The first kernel's barrier asks for block 0's warp 0, which has
	// no response left: the replay reads ahead into the second kernel,
	// to its first response, another warp's, and serves warp 0 the
	// latest it was served, 1. The second kernel's barrier reads ahead
	// to the journal's end.
	var full fenceProbe
	if _, err := Replay(bytes.NewReader(data), &full); err != nil {
		t.Fatal(err)
	}
	if want := []uint32{1, 2, 1, 3, 4, 4}; !reflect.DeepEqual(full.served, want) {
		t.Fatalf("served %v, want %v", full.served, want)
	}
	for cut := 0; cut <= len(data); cut++ {
		if diff := sameReplay(data[:cut]); diff != "" {
			t.Fatalf("cut %d of %d: %s", cut, len(data), diff)
		}
	}
}
