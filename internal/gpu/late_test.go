package gpu_test

import (
	"reflect"
	"testing"

	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/isa"
	"haccrg/internal/kernels"
)

// warmKernel is one block that leaves its SM's shared tile and shadow
// tile dirty: every thread stores to one shared word, racing across
// warps, then crosses a barrier and reads it back. It touches no
// device memory, so the L2s and DRAM it leaves are as a fresh
// device's.
func warmKernel() *gpu.Kernel {
	const rTid, rAddr = isa.Reg(1), isa.Reg(2)
	b := isa.NewBuilder("warm")
	b.Sreg(rTid, isa.SregTid)
	b.Movi(rAddr, 0)
	b.St(isa.SpaceShared, rAddr, 0, rTid, 4)
	b.Bar()
	b.Ld(rTid, isa.SpaceShared, rAddr, 0, 4)
	b.Exit()
	return &gpu.Kernel{Name: "warm", Prog: b.MustBuild(), GridDim: 1, BlockDim: 256, SharedBytes: 64}
}

// noHealth hides the detector's health report, a count over the
// detector's whole life that a fresh detector cannot share.
type noHealth struct{ gpu.Detector }

// TestLateBuiltSMEqualsFresh: a one-block kernel builds one of
// TestConfig's four SMs, and the scan benchmark that follows it on the
// same device builds the other three. Scan's launch stats and races
// equal those of a fresh device that runs only scan: an L1, shared
// tile or shadow tile built late behaves like one reset at the launch
// boundary, and one reset there forgets the kernel before it.
func TestLateBuiltSMEqualsFresh(t *testing.T) {
	run := func(warm bool) (*gpu.LaunchStats, []string) {
		det := core.MustNew(core.DefaultOptions())
		bm := kernels.Get("scan")
		dev := gpu.MustNewDevice(gpu.TestConfig(), bm.GlobalBytes(2), noHealth{det})
		plan, err := bm.Build(dev, kernels.Params{Scale: 2})
		if err != nil {
			t.Fatal(err)
		}
		if warm {
			if _, err := dev.Launch(warmKernel()); err != nil {
				t.Fatal(err)
			}
			if len(det.Races()) == 0 {
				t.Fatal("the one-block kernel reported no race, so it left no shadow state")
			}
		}
		st, err := plan.Run(dev)
		if err != nil {
			t.Fatal(err)
		}
		var races []string
		for _, r := range det.Races() {
			if r.Kernel != "warm" {
				races = append(races, r.String())
			}
		}
		return st, races
	}
	fresh, freshRaces := run(false)
	late, lateRaces := run(true)
	if !reflect.DeepEqual(late, fresh) {
		t.Errorf("scan after a one-block kernel: stats\n%+v\nwant a fresh device's\n%+v", late, fresh)
	}
	if len(freshRaces) == 0 {
		t.Fatal("scan reported no race, so its races were never compared")
	}
	if !reflect.DeepEqual(lateRaces, freshRaces) {
		t.Errorf("scan after a one-block kernel: races\n%v\nwant a fresh device's\n%v", lateRaces, freshRaces)
	}
}
