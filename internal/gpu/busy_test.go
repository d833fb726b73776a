package gpu

import (
	"errors"
	"slices"
	"testing"

	"haccrg/internal/isa"
)

// loopKernel runs an ALU loop in every thread: block b iterates
// trips + b*skew times, so with skew > 0 the blocks retire one by one.
func loopKernel(grid, blockDim int, trips, skew int64) *Kernel {
	b := isa.NewBuilder("loop")
	b.Sreg(rN, isa.SregCtaid)
	b.Muli(rN, rN, skew)
	b.Addi(rN, rN, trips)
	b.Movi(rI, 0)
	b.Setp(0, isa.CmpLT, rI, rN)
	b.While(0)
	b.Addi(rVal, rVal, 1)
	b.Addi(rI, rI, 1)
	b.Setp(0, isa.CmpLT, rI, rN)
	b.EndWhile()
	b.Exit()
	return &Kernel{Name: "loop", Prog: b.MustBuild(), GridDim: grid, BlockDim: blockDim}
}

// watchBusy makes every scheduler step of d check the SMs it is about
// to visit against a full scan of the device: exactly the SMs that
// hold warps, in id order, each with a cached next issue cycle equal to
// a fresh scan of its warps. It returns the count of steps checked.
func watchBusy(t *testing.T, d *Device) *int {
	t.Helper()
	steps := new(int)
	d.stepHook = func() {
		*steps++
		var want, got []int
		for _, s := range d.sms {
			if len(s.warps) > 0 {
				want = append(want, s.id)
			}
		}
		for _, s := range d.busy {
			got = append(got, s.id)
			if fresh := s.earliestReady(); s.nextIssue != fresh {
				t.Fatalf("step %d (cycle %d): SM %d caches next issue cycle %d; its warps say %d",
					*steps, d.now, s.id, s.nextIssue, fresh)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d (cycle %d) visits SMs %v; the SMs holding warps are %v",
				*steps, d.now, got, want)
		}
	}
	return steps
}

// TestStepVisitsExactlyTheBusySMs: the list a scheduler step walks
// stays equal to a full scan of the SMs as blocks are placed and
// retire. The difftest programs run under the same check
// (TestDifferentialRandomPrograms).
func TestStepVisitsExactlyTheBusySMs(t *testing.T) {
	small := TestConfig()
	cases := []struct {
		name string
		cfg  Config
		k    *Kernel
	}{
		// Two of the Table I machine's 30 SMs hold warps, and block 0
		// retires long before block 1.
		{"sparse", DefaultConfig(), loopKernel(2, 64, 8, 40)},
		// 64 blocks queue for 32 residency slots on 4 SMs; each
		// retirement places the next block onto the same SM, and the
		// SMs drain unevenly at the end.
		{"more-blocks-than-residency", small, loopKernel(64, 128, 4, 1)},
		// Warp 0 of each block exits while warps 1-3 wait at a barrier.
		{"early-exit-before-barrier", small, earlyExitKernel(6)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDevice(tc.cfg, 1<<16, nil)
			if err != nil {
				t.Fatal(err)
			}
			steps := watchBusy(t, d)
			st, err := d.Launch(tc.k)
			if err != nil {
				t.Fatal(err)
			}
			if *steps == 0 || st.BlocksRetired != int64(tc.k.GridDim) {
				t.Fatalf("%d steps checked, %d of %d blocks retired", *steps, st.BlocksRetired, tc.k.GridDim)
			}
		})
	}
}

// TestDeadlockWithBusyList: a step in which no warp on any busy SM can
// issue still aborts with HangDeadlock and diagnoses every live block.
// No program deadlocks the barrier model (the last warp to arrive
// releases the rest), so the step hook parks every resident warp, and
// rescans each SM as the scheduler does after a change to its warps.
func TestDeadlockWithBusyList(t *testing.T) {
	d, err := NewDevice(DefaultConfig(), 1<<16, nil)
	if err != nil {
		t.Fatal(err)
	}
	steps := watchBusy(t, d)
	check := d.stepHook
	d.stepHook = func() {
		check()
		if *steps < 20 {
			return
		}
		for _, s := range d.sms {
			for _, w := range s.warps {
				w.state = warpAtBarrier
			}
			s.nextIssue = s.earliestReady()
		}
	}
	_, err = d.Launch(loopKernel(3, 64, 100, 0))
	var hang *HangError
	if !errors.As(err, &hang) || hang.Reason != HangDeadlock {
		t.Fatalf("err = %v, want a %s HangError", err, HangDeadlock)
	}
	if hang.BlocksLeft != 3 || len(hang.Blocks) != 3 {
		t.Fatalf("%d blocks left, %d diagnosed; want 3 and 3", hang.BlocksLeft, len(hang.Blocks))
	}
	for i, bd := range hang.Blocks {
		if bd.SM != i {
			t.Errorf("block %d diagnosed on SM %d, want %d", bd.Block, bd.SM, i)
		}
	}
}

// BenchmarkLaunchLoop times whole launches of loopKernel on the
// Table I machine and reports host time per issued warp instruction.
// In sparse, 2 of the 30 SMs hold warps, so a scheduler step has 28
// idle SMs to skip; in full, every SM holds a block and there is
// nothing to skip.
func BenchmarkLaunchLoop(b *testing.B) {
	cfg := DefaultConfig()
	for _, bc := range []struct {
		name string
		grid int
	}{{"sparse", 2}, {"full", cfg.NumSMs}} {
		b.Run(bc.name, func(b *testing.B) {
			d, err := NewDevice(cfg, 1<<16, nil)
			if err != nil {
				b.Fatal(err)
			}
			k := loopKernel(bc.grid, 256, 64, 0)
			var instrs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := d.Launch(k)
				if err != nil {
					b.Fatal(err)
				}
				instrs += st.WarpInstrs
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/warp-instr")
		})
	}
}
