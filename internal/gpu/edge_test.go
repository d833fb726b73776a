package gpu

import (
	"strings"
	"testing"

	"haccrg/internal/isa"
)

// TestLocalMemory exercises the per-thread local space: each thread
// spills and reloads values through its private device-memory slot.
func TestLocalMemory(t *testing.T) {
	cfg := TestConfig()
	cfg.LocalBytesPerThread = 64
	d, err := NewDevice(cfg, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := d.MustMalloc(64 * 4)
	b := isa.NewBuilder("local")
	b.Sreg(rTid, isa.SregTid)
	// local[0] = tid*3; local[8] = tid*5; out[tid] = local[0] + local[8].
	b.Movi(rAddr, 0)
	b.Muli(rVal, rTid, 3)
	b.St(isa.SpaceLocal, rAddr, 0, rVal, 4)
	b.Muli(rVal, rTid, 5)
	b.St(isa.SpaceLocal, rAddr, 32, rVal, 4)
	b.Ld(rTmp, isa.SpaceLocal, rAddr, 0, 4)
	b.Ld(rVal, isa.SpaceLocal, rAddr, 32, 4)
	b.Add(rVal, rVal, rTmp)
	b.Ldp(rBase, 0)
	b.Muli(rAddr, rTid, 4)
	b.Add(rAddr, rBase, rAddr)
	b.St(isa.SpaceGlobal, rAddr, 0, rVal, 4)
	b.Exit()
	k := &Kernel{Name: "local", Prog: b.MustBuild(), GridDim: 2, BlockDim: 32, Params: []uint64{out}}
	st, err := d.Launch(k)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		tid := i % 32
		if got := d.Global.U32(int(out)/4 + tid); got != uint32(tid*8) {
			t.Fatalf("out[%d] = %d, want %d", tid, got, tid*8)
		}
	}
	if st.LocalAccesses != 64*4 {
		t.Errorf("local accesses = %d, want 256", st.LocalAccesses)
	}
}

// TestLocalMemoryNeverRaces confirms the detector ignores the private
// local space even when all threads use identical local offsets.
func TestLocalMemoryIsPrivate(t *testing.T) {
	cfg := TestConfig()
	cfg.LocalBytesPerThread = 16
	det := &countingDetector{}
	d, err := NewDevice(cfg, 1<<20, det)
	if err != nil {
		t.Fatal(err)
	}
	b := isa.NewBuilder("lp")
	b.Movi(rAddr, 0)
	b.Movi(rVal, 7)
	b.St(isa.SpaceLocal, rAddr, 0, rVal, 4)
	b.Ld(rVal, isa.SpaceLocal, rAddr, 0, 4)
	b.Exit()
	k := &Kernel{Name: "lp", Prog: b.MustBuild(), GridDim: 2, BlockDim: 64}
	if _, err := d.Launch(k); err != nil {
		t.Fatal(err)
	}
	if det.globalEvents != 0 {
		t.Errorf("local accesses reached the global RDU: %d events", det.globalEvents)
	}
}

// countingDetector counts the events the engine hands to detectors.
type countingDetector struct {
	NopDetector
	globalEvents int
	sharedEvents int
}

func (c *countingDetector) WarpMem(ev *WarpMemEvent) int64 {
	switch ev.Space {
	case isa.SpaceGlobal:
		c.globalEvents++
	case isa.SpaceShared:
		c.sharedEvents++
	}
	return 0
}

// TestSharedAtomics exercises atomic operations on the shared space.
func TestSharedAtomics(t *testing.T) {
	d := testDevice(t, 1<<16)
	out := d.MustMalloc(4)
	b := isa.NewBuilder("shatom")
	b.Sreg(rTid, isa.SregTid)
	// Clear shared[0] from thread 0, barrier, everyone atomically adds
	// tid, barrier, thread 0 publishes.
	b.Setpi(0, isa.CmpEQ, rTid, 0)
	b.If(0)
	b.Movi(rAddr, 0)
	b.Movi(rVal, 0)
	b.St(isa.SpaceShared, rAddr, 0, rVal, 4)
	b.EndIf()
	b.Bar()
	b.Movi(rAddr, 0)
	b.Atom(rTmp, isa.AtomAdd, isa.SpaceShared, rAddr, 0, rTid, 0)
	b.Bar()
	b.Setpi(0, isa.CmpEQ, rTid, 0)
	b.If(0)
	b.Ld(rVal, isa.SpaceShared, rAddr, 0, 4)
	b.Ldp(rBase, 0)
	b.St(isa.SpaceGlobal, rBase, 0, rVal, 4)
	b.EndIf()
	b.Exit()
	k := &Kernel{Name: "shatom", Prog: b.MustBuild(), GridDim: 1, BlockDim: 128, SharedBytes: 16, Params: []uint64{out}}
	st, err := d.Launch(k)
	if err != nil {
		t.Fatal(err)
	}
	want := uint32(128 * 127 / 2)
	if got := d.Global.U32(int(out) / 4); got != want {
		t.Fatalf("shared atomic sum = %d, want %d", got, want)
	}
	if st.SharedAtomics != 128 {
		t.Errorf("shared atomics = %d, want 128", st.SharedAtomics)
	}
}

// TestEarlyExitBeforeBarrier: some warps exit before the barrier; the
// engine's safety valve must release the remaining warps instead of
// hanging (CUDA semantics are undefined but never deadlock the SM
// forever in our model).
func TestEarlyExitBeforeBarrier(t *testing.T) {
	d := testDevice(t, 1<<16)
	if _, err := d.Launch(earlyExitKernel(1)); err != nil {
		t.Fatalf("early-exit kernel hung or failed: %v", err)
	}
}

// earlyExitKernel: in each block, warp 0 exits immediately and warps
// 1-3 meet at a barrier.
func earlyExitKernel(grid int) *Kernel {
	b := isa.NewBuilder("early")
	b.Sreg(rTid, isa.SregTid)
	b.Setpi(0, isa.CmpLT, rTid, 32)
	b.If(0)
	b.Exit()
	b.EndIf()
	b.Bar()
	b.Exit()
	return &Kernel{Name: "early", Prog: b.MustBuild(), GridDim: grid, BlockDim: 128}
}

// TestWideWarps runs the engine at warp size 64 (AMD wavefronts, which
// the paper's Section II cites) to confirm the mask logic is width-
// agnostic.
func TestWideWarps(t *testing.T) {
	cfg := TestConfig()
	cfg.WarpSize = 64
	cfg.SIMDWidth = 16
	d, err := NewDevice(cfg, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := d.MustMalloc(256 * 4)
	st, err := d.Launch(vecAddKernel(2, 128, out, out))
	if err != nil {
		t.Fatal(err)
	}
	if st.GlobalWrites != 256 {
		t.Errorf("writes = %d, want 256", st.GlobalWrites)
	}
	for i := 0; i < 256; i++ {
		if got := d.Global.U32(int(out)/4 + i); got != 1 {
			t.Fatalf("out[%d] = %d, want 1", i, got)
		}
	}
}

// TestConfigValidation covers the rejection paths.
func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumSMs = 0 },
		func(c *Config) { c.WarpSize = 65 },
		func(c *Config) { c.SIMDWidth = 7 },
		func(c *Config) { c.MaxThreadsPerSM = 8 },
		func(c *Config) { c.SegmentBytes = 100 },
		func(c *Config) { c.L1.Assoc = 0 },
		func(c *Config) { c.Bloom.SizeBits = 13 },
		func(c *Config) { c.Shared.Banks = 0 },
	}
	for i, mutate := range bad {
		cfg := TestConfig()
		mutate(&cfg)
		if _, err := NewDevice(cfg, 1024, nil); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestPartitionsOf holds the partition map to its definition, the line
// index modulo the partition count, on the masked (power-of-two) and
// the divided (other) counts alike.
func TestPartitionsOf(t *testing.T) {
	for _, seg := range []int{32, 128} {
		for _, n := range []int{1, 2, 5, 6, 8} {
			cfg := TestConfig()
			cfg.SegmentBytes, cfg.NumPartitions = seg, n
			p := cfg.Partitions()
			seen := make([]bool, n)
			for _, base := range []uint64{0, 1 << 20, 1<<40 + 3, 1<<63 - 1<<12} {
				for off := uint64(0); off < uint64(16*seg); off += 13 {
					addr := base + off
					got, want := p.Of(addr), int(addr/uint64(seg)%uint64(n))
					if got != want {
						t.Fatalf("segment %d, %d partitions: Of(%#x) = %d, want %d", seg, n, addr, got, want)
					}
					seen[got] = true
				}
			}
			for part, ok := range seen {
				if !ok {
					t.Errorf("segment %d, %d partitions: no address maps to partition %d", seg, n, part)
				}
			}
		}
	}
}

// TestStatsPercentages sanity-checks the Table II helpers.
func TestStatsPercentages(t *testing.T) {
	s := LaunchStats{ThreadInstrs: 200, SharedReads: 20, GlobalReads: 50}
	if s.SharedReadPct() != 10 || s.GlobalReadPct() != 25 {
		t.Fatalf("pct helpers wrong: %v %v", s.SharedReadPct(), s.GlobalReadPct())
	}
	var zero LaunchStats
	if zero.SharedReadPct() != 0 || zero.GlobalReadPct() != 0 {
		t.Fatal("zero stats must not divide by zero")
	}
}

// TestDisassemblyInErrors: engine errors carry the kernel name for
// diagnosis.
func TestErrorsNameTheKernel(t *testing.T) {
	d := testDevice(t, 64)
	b := isa.NewBuilder("oops")
	b.Movi(rAddr, 1<<20)
	b.Ld(rVal, isa.SpaceGlobal, rAddr, 0, 4)
	b.Exit()
	k := &Kernel{Name: "oops", Prog: b.MustBuild(), GridDim: 1, BlockDim: 32}
	_, err := d.Launch(k)
	if err == nil || !strings.Contains(err.Error(), "oops") {
		t.Fatalf("error does not identify the kernel: %v", err)
	}
}

// TestNoCContention: many SMs hammering one partition must serialize;
// cycle counts grow superlinearly versus a single-SM run of the same
// per-SM work.
func TestMemoryContentionVisible(t *testing.T) {
	run := func(grid int) int64 {
		d := testDevice(t, 1<<22)
		// All blocks stream the same region: maximal partition pressure.
		buf := d.MustMalloc(1 << 16)
		b := isa.NewBuilder("stream")
		b.Sreg(rTid, isa.SregTid)
		b.Ldp(rBase, 0)
		b.Movi(rI, 0)
		b.Setpi(0, isa.CmpLT, rI, 64)
		b.While(0)
		b.Muli(rAddr, rI, 128*4)
		b.Muli(rTmp, rTid, 4)
		b.Add(rAddr, rAddr, rTmp)
		b.Add(rAddr, rBase, rAddr)
		b.Ld(rVal, isa.SpaceGlobal, rAddr, 0, 4)
		b.Addi(rI, rI, 1)
		b.Setpi(0, isa.CmpLT, rI, 64)
		b.EndWhile()
		b.Exit()
		k := &Kernel{Name: "stream", Prog: b.MustBuild(), GridDim: grid, BlockDim: 128, Params: []uint64{buf}}
		st, err := d.Launch(k)
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	one := run(1)
	many := run(8) // 8 blocks across 4 SMs, same footprint
	if many <= one {
		t.Fatalf("no contention visible: 1 block %d cycles, 8 blocks %d", one, many)
	}
}

// BenchmarkSimulatorThroughput measures the engine's host-side speed
// in simulated thread-instructions per wall second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := TestConfig()
	var instrs int64
	for i := 0; i < b.N; i++ {
		d, err := NewDevice(cfg, 1<<20, nil)
		if err != nil {
			b.Fatal(err)
		}
		in := d.MustMalloc(4096 * 4)
		out := d.MustMalloc(4096 * 4)
		st, err := d.Launch(vecAddKernel(64, 64, in, out))
		if err != nil {
			b.Fatal(err)
		}
		instrs += st.ThreadInstrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "thread-instrs/s")
}

// TestSharedNegativeOffsetFails: a negative shared offset wraps to a
// huge unsigned one, and so does the end of the access. The launch
// must fail instead of the store landing in the neighbouring block's
// window of the SM tile.
func TestSharedNegativeOffsetFails(t *testing.T) {
	cfg := TestConfig()
	cfg.NumSMs = 1
	d, err := NewDevice(cfg, 1<<16, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := isa.NewBuilder("negshared")
	b.Sreg(rTmp, isa.SregCtaid)
	b.Setpi(0, isa.CmpEQ, rTmp, 1)
	b.If(0)
	b.Movi(rAddr, -4)
	b.Movi(rVal, 77)
	b.St(isa.SpaceShared, rAddr, 0, rVal, 4)
	b.EndIf()
	b.Exit()
	k := &Kernel{Name: "negshared", Prog: b.MustBuild(), GridDim: 2, BlockDim: 32, SharedBytes: 256}
	if _, err := d.Launch(k); err == nil || !strings.Contains(err.Error(), "shared access") {
		t.Fatalf("launch error = %v, want a shared out-of-bounds failure", err)
	}
	// Block 1 sits at tile offset 256, so offset -4 is tile[252]: the
	// last word of block 0's window.
	if got, err := d.sms[0].shared.Mem.Load(252, 4); err != nil || got == 77 {
		t.Errorf("tile[252] = %d (%v): block 1's store reached block 0's window", got, err)
	}
}

// TestLocalAccessOutsideSlotFails: a local access outside the thread's
// [0, LocalBytesPerThread) slot fails the launch, naming the kernel
// and pc. Without the check, a device with no local memory sent every
// thread's access to global address offset, and an access past the
// slot landed in the next thread's slot.
func TestLocalAccessOutsideSlotFails(t *testing.T) {
	for _, tc := range []struct {
		name string
		slot int
		off  int64
	}{
		{"no-local-memory", 0, 0},
		{"past-the-slot", 16, 16},
		{"negative", 16, -4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := TestConfig()
			cfg.LocalBytesPerThread = tc.slot
			d, err := NewDevice(cfg, 1<<16, nil)
			if err != nil {
				t.Fatal(err)
			}
			buf := d.MustMalloc(64)
			b := isa.NewBuilder("localoob")
			b.Sreg(rTid, isa.SregTid)
			b.Addi(rVal, rTid, 1000)
			b.Movi(rAddr, tc.off)
			b.St(isa.SpaceLocal, rAddr, 0, rVal, 4)
			b.Exit()
			k := &Kernel{Name: "localoob", Prog: b.MustBuild(), GridDim: 1, BlockDim: 32}
			_, err = d.Launch(k)
			if err == nil || !strings.Contains(err.Error(), `kernel "localoob" pc 3: local access`) {
				t.Fatalf("launch error = %v, want the local bounds failure at pc 3", err)
			}
			for i := 0; i < 16; i++ {
				if v := d.Global.U32(int(buf)/4 + i); v != 0 {
					t.Fatalf("global word %d of the first buffer = %d: a local store leaked", i, v)
				}
			}
		})
	}
}
