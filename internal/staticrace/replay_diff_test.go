package staticrace_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"haccrg/internal/gpu"
	"haccrg/internal/isa"
	"haccrg/internal/kernels"
	"haccrg/internal/staticrace"
)

// traceDetector records every thread's access sequence in the order
// the simulator issues it, in the replay's terms: shared addresses
// fold from the SM tile into the block's window.
type traceDetector struct {
	gpu.NopDetector
	sharedBytes uint64
	seq         map[[2]int][]staticrace.ReplayAccess
}

func (d *traceDetector) WarpMem(ev *gpu.WarpMemEvent) int64 {
	for _, l := range ev.Lanes {
		addr := l.Addr
		if ev.Space == isa.SpaceShared {
			addr %= d.sharedBytes // the window base is slot*SharedBytes
		}
		key := [2]int{ev.Block, l.Tid}
		d.seq[key] = append(d.seq[key], staticrace.ReplayAccess{
			PC: ev.PC, Space: ev.Space, Addr: addr, Size: int(l.Size),
			Write: ev.Write, Atomic: ev.Atomic,
		})
	}
	return 0
}

// replayMatchesSim launches k on dev, whose detector is det, and checks
// that every thread the replay finishes taint-free issued exactly the
// replayed access sequence. It returns the number of threads compared.
func replayMatchesSim(t testing.TB, dev *gpu.Device, det *traceDetector, k *gpu.Kernel) int {
	t.Helper()
	traces, err := staticrace.ReplayTraces(k, detectorConf())
	if err != nil {
		t.Fatalf("%s: replay: %v", k.Name, err)
	}
	det.sharedBytes = uint64(k.SharedBytes)
	det.seq = map[[2]int][]staticrace.ReplayAccess{}
	if _, err := dev.LaunchContext(context.Background(), k, gpu.LaunchLimits{MaxCycles: 50_000_000}); err != nil {
		t.Fatalf("launch %s: %v\n%s", k.Name, err, k.Prog.Disassemble())
	}
	compared := 0
	for _, th := range traces {
		if !th.OK {
			continue
		}
		compared++
		got := det.seq[[2]int{th.Block, th.Tid}]
		if slices.Equal(got, th.Accesses) {
			continue
		}
		i := 0
		for i < len(got) && i < len(th.Accesses) && got[i] == th.Accesses[i] {
			i++
		}
		t.Fatalf("%s thread (b%d,t%d): simulator issued %d accesses, replay %d; first difference at #%d\nsim:    %+v\nreplay: %+v\n%s",
			k.Name, th.Block, th.Tid, len(got), len(th.Accesses), i,
			got[i:min(i+1, len(got))], th.Accesses[i:min(i+1, len(th.Accesses))],
			k.Prog.Disassemble())
	}
	return compared
}

// TestReplayMatchesSimulator is the replay's exactness check: over the
// ten suite plans and a corpus of random programs, every thread the
// replay finishes taint-free issues exactly the simulator's per-thread
// access sequence (pc, space, address, size, write, atomic).
func TestReplayMatchesSimulator(t *testing.T) {
	suite := 0
	for _, bm := range kernels.All() {
		det := &traceDetector{}
		dev, err := gpu.NewDevice(gpu.TestConfig(), bm.GlobalBytes(1), det)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := bm.Build(dev, kernels.Params{Scale: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range plan.Kernels {
			suite += replayMatchesSim(t, dev, det, k)
		}
	}
	rng := rand.New(rand.NewSource(7))
	random, programs := 0, 0
	for n := 0; n < 200; n++ {
		data := make([]byte, 40+rng.Intn(60))
		rng.Read(data)
		k := genKernel(fmt.Sprintf("rdiff%03d", n), data)
		if k == nil {
			continue
		}
		programs++
		det := &traceDetector{}
		dev, err := gpu.NewDevice(gpu.TestConfig(), 1<<16, det)
		if err != nil {
			t.Fatal(err)
		}
		random += replayMatchesSim(t, dev, det, k)
	}
	if suite == 0 || random == 0 || programs < 150 {
		t.Fatalf("thin comparison: %d suite threads, %d random threads over %d programs", suite, random, programs)
	}
	t.Logf("%d suite threads and %d threads of %d random programs match the simulator", suite, random, programs)
}

// FuzzReplayMatchesSimulator drives the same check with fuzzed
// genKernel programs.
func FuzzReplayMatchesSimulator(f *testing.F) {
	f.Add([]byte{9, 1, 10, 2, 14, 0, 11, 0, 11, 0, 12, 0})
	f.Add([]byte{10, 200, 15, 3, 16, 7, 11, 1, 6, 40, 9, 0, 14, 9, 11, 5})
	f.Add([]byte{8, 17, 6, 33, 14, 4, 12, 0, 15, 8, 16, 2, 17, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		k := genKernel("fuzz", data)
		if k == nil {
			return
		}
		det := &traceDetector{}
		dev, err := gpu.NewDevice(gpu.TestConfig(), 1<<16, det)
		if err != nil {
			t.Fatal(err)
		}
		replayMatchesSim(t, dev, det, k)
	})
}
