package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"haccrg/internal/bloom"
	"haccrg/internal/fault"
	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// This file drives the detector through long deterministic mixed
// shared+global event streams — full and partial warps, coalesced and
// scattered lanes, atomics, critical sections, fences, barriers and
// block rotations — and digests everything the findings contract
// covers (races with counts, stats, health).

// streamEvent emits one deterministic pseudo-random global-memory warp
// instruction: full warps, coalesced single-line runs and scattered
// multi-partition runs, several blocks and warps, some critical
// sections, some atomics.
func streamEvent(rng *rand.Rand, cycle int64) *gpu.WarpMemEvent {
	nlanes := 32
	if rng.Intn(8) == 0 {
		nlanes = 1 + rng.Intn(32) // partial warp
	}
	block := rng.Intn(3)
	warp := rng.Intn(2)
	ev := &gpu.WarpMemEvent{
		Space:       isa.SpaceGlobal,
		Write:       rng.Intn(2) == 0,
		PC:          4 * (1 + rng.Intn(6)),
		SM:          block % 2,
		Block:       block,
		WarpInBlock: warp,
		Kernel:      "stream",
		SyncID:      uint32(rng.Intn(2)),
		Cycle:       cycle,
		Lanes:       make([]gpu.LaneAccess, nlanes),
	}
	if rng.Intn(16) == 0 {
		ev.Atomic = true
		ev.Write = true
	}
	base := uint64(rng.Intn(64)) * 128
	scattered := rng.Intn(4) == 0
	inCrit := rng.Intn(8) == 0
	for l := 0; l < nlanes; l++ {
		tid := warp*32 + l
		addr := base + uint64(l)*4
		if scattered {
			addr = uint64(rng.Intn(2048)) * 4 // lanes hop lines and partitions
		}
		ev.Lanes[l] = gpu.LaneAccess{
			Lane: l, Tid: tid, GTid: block*64 + tid,
			Addr: addr, Size: 4, Arrival: cycle,
		}
		if inCrit {
			ev.Lanes[l].InCrit = true
			ev.Lanes[l].AtomicSig = bloom.Sig(1) << (rng.Intn(2) * 7)
		}
	}
	return ev
}

// sharedStreamEvent emits one deterministic pseudo-random shared-memory
// warp instruction: full and partial warps, coalesced runs and
// scattered bank-hopping lanes, four SMs, some atomics.
func sharedStreamEvent(rng *rand.Rand, cycle int64) *gpu.WarpMemEvent {
	nlanes := 32
	if rng.Intn(8) == 0 {
		nlanes = 1 + rng.Intn(32)
	}
	sm := rng.Intn(4) // TestConfig has 4 SMs
	warp := rng.Intn(2)
	ev := &gpu.WarpMemEvent{
		Space:       isa.SpaceShared,
		Write:       rng.Intn(2) == 0,
		PC:          4 * (1 + rng.Intn(6)),
		SM:          sm,
		Block:       sm, // one resident block per SM
		WarpInBlock: warp,
		Kernel:      "stream",
		Cycle:       cycle,
		Lanes:       make([]gpu.LaneAccess, nlanes),
	}
	if rng.Intn(16) == 0 {
		ev.Atomic, ev.Write = true, true
	}
	base := uint64(rng.Intn(64)) * 64
	scattered := rng.Intn(4) == 0
	for l := 0; l < nlanes; l++ {
		tid := warp*32 + l
		addr := base + uint64(l)*4
		if scattered {
			addr = uint64(rng.Intn(1024)) * 4 // lanes hop granules and banks
		}
		ev.Lanes[l] = gpu.LaneAccess{
			Lane: l, Tid: tid, GTid: sm*64 + tid,
			Addr: addr, Size: 4, Arrival: cycle,
		}
	}
	return ev
}

const testSharedSize = 48 << 10 // TestConfig Shared.SizeBytes

// streamRun configures one runFullStream pass.
type streamRun struct {
	opt    func(*Options) // option overrides (nil = defaults, timing off)
	filter bool           // mask the even-numbered sites the generators emit
	// scribble overwrites and truncates every event right after
	// WarpMem returns, exercising the WarpMemEvent ownership contract.
	scribble bool
}

// runFullStream drives one detector through two kernels of a mixed
// shared+global stream — alternating spaces, block starts, barriers
// with real shared extents, fence-clock advances, a mid-kernel stats
// read — and returns a digest of everything the findings contract
// covers.
func runFullStream(t *testing.T, events int, run streamRun) string {
	t.Helper()
	opt := DefaultOptions()
	opt.ModelTraffic = false
	if run.opt != nil {
		run.opt(&opt)
	}
	d := MustNew(opt)
	if run.filter {
		mask := make([]bool, 32)
		for pc := 8; pc < len(mask); pc += 8 {
			mask[pc] = true
		}
		d.SetStaticFilter(maskFilter{"full0": mask, "full1": mask})
	}
	env := newFakeEnv()
	for k := 0; k < 2; k++ {
		rng := rand.New(rand.NewSource(777)) // same stream every kernel
		env.fenceIDs = map[[2]int]uint32{}
		d.KernelStart(env, fmt.Sprintf("full%d", k))
		for sm := 0; sm < 4; sm++ {
			d.BlockStart(sm, 0, testSharedSize)
		}
		for i := 0; i < events; i++ {
			cycle := int64(100 + i)
			var ev *gpu.WarpMemEvent
			if i%2 == 0 {
				ev = sharedStreamEvent(rng, cycle)
			} else {
				ev = streamEvent(rng, cycle)
			}
			d.WarpMem(ev)
			if run.scribble {
				// The event is borrowed only for the duration of the
				// call: scribbling over it afterwards must affect
				// nothing (and trips -race on any aliasing).
				for l := range ev.Lanes {
					ev.Lanes[l] = gpu.LaneAccess{Addr: ^uint64(0), Tid: -1}
				}
				ev.Lanes = ev.Lanes[:0]
			}
			if i%97 == 0 {
				// A warp fences: later RAW checks against its writes
				// read the advanced race-register-file value.
				env.fenceIDs[[2]int{i % 3, i % 2}] = uint32(i/97 + 1)
			}
			if i%151 == 150 {
				d.Barrier(i%4, i%4, 0, testSharedSize, cycle)
			}
			if i%131 == 130 {
				d.BlockStart(i%4, 0, testSharedSize/2) // mid-kernel block rotation
			}
			if i == events/2 {
				_ = d.Stats()
			}
		}
		d.KernelEnd()
	}
	var digest strings.Builder
	for _, r := range d.SortedRaces() {
		fmt.Fprintf(&digest, "%s count=%d\n", r, r.Count)
	}
	h := d.Health()
	fmt.Fprintf(&digest, "stats=%+v\nhealth=dropped:%d flips:%d corrected:%d stuck:%d quarantined:%d skips:%d reinit:%d satsigs:%d spikes:%d total:%d fill:%.6f degraded:%v",
		d.Stats(), h.DroppedChecks, h.InjectedFlips, h.CorrectedFlips, h.StuckReads,
		h.QuarantinedGranules, h.QuarantineSkips, h.ReinitGranules, h.SaturatedSigs,
		h.LatencySpikes, h.TotalChecks, h.BloomFillPct, h.Degraded)
	return digest.String()
}

func digestHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// TestSharedShardedDifferentialSweep runs the 400-event stream under
// fault plans, both degradation policies, the static filter and the
// Figure 8 layout. Each variant's digest is pinned to the value that
// the serial, global-sharded, shared-sharded and fully-sharded engine
// combinations all reproduced before the sharded engines were folded
// into the serial detector, so the inline RDUs keep proving they reach
// exactly those findings, stats and health counters.
func TestSharedShardedDifferentialSweep(t *testing.T) {
	variants := []struct {
		name   string
		opt    func(*Options)
		filter bool
		want   string
	}{
		{"plain", nil, false, "4457995df238a79c"},
		{"filtered", nil, true, "ee7c93646a9b80e3"},
		{"flip-ecc", func(o *Options) {
			o.Fault = &fault.Plan{FlipRate: 0.02, ECC: true}
		}, false, "e0b53bbc2ff37cc6"},
		{"flip-raw", func(o *Options) {
			o.Fault = &fault.Plan{FlipRate: 0.02}
		}, false, "a2c42764ab074afb"},
		{"stuck-quarantine", func(o *Options) {
			o.Fault = &fault.Plan{StuckPerKi: 8, ECC: true}
			o.Degradation = DegradeQuarantine
		}, false, "8b4f0ffc6701606b"},
		{"stuck-reinit", func(o *Options) {
			o.Fault = &fault.Plan{StuckPerKi: 8, ECC: true}
			o.Degradation = DegradeReinit
		}, false, "737587e6655f2b18"},
		{"queue-cap", func(o *Options) {
			o.Fault = &fault.Plan{QueueCap: 64, QueueDrain: 2}
		}, false, "91bc265ab76ff5e4"},
		{"bloom-fill", func(o *Options) {
			o.Fault = &fault.Plan{BloomFill: 0.5}
		}, false, "a76640bad573f11b"},
		{"fig8-fallback", func(o *Options) {
			o.SharedShadowInGlobal = true
		}, false, "0dee304709e6f51c"},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			got := runFullStream(t, 400, streamRun{opt: v.opt, filter: v.filter})
			if h := digestHash(got); h != v.want {
				t.Errorf("digest %s, pinned %s:\n%s", h, v.want, got)
			}
		})
	}
}

// TestWarpMemEventOwnership enforces the WarpMemEvent ownership
// contract: the caller mutates and truncates every event immediately
// after WarpMem returns. Findings must be untouched, and `go test
// -race` proves the detector retained no reference into caller-owned
// storage.
func TestWarpMemEventOwnership(t *testing.T) {
	clean := runFullStream(t, 400, streamRun{})
	mutated := runFullStream(t, 400, streamRun{scribble: true})
	if clean != mutated {
		t.Errorf("mutating events after WarpMem changed the findings:\n--- clean\n%s\n--- mutated\n%s", clean, mutated)
	}
}
