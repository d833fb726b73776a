package gpu

import (
	"math/bits"
	"testing"

	"haccrg/internal/isa"
)

// laneReader is a detector that reads every lane of every event, as a
// real RDU does, and remembers how many lanes the last event carried.
type laneReader struct {
	NopDetector
	events, lanes int
	sum           uint64
}

func (d *laneReader) WarpMem(ev *WarpMemEvent) int64 {
	d.events++
	d.lanes = len(ev.Lanes)
	for i := range ev.Lanes {
		la := &ev.Lanes[i]
		d.sum += la.Addr + uint64(la.Arrival) + uint64(la.L1Fill)
	}
	return 0
}

// hotCase is one warp memory instruction run over and over on a
// resident warp: the steady state of the simulator's memory path.
type hotCase struct {
	name string
	in   isa.Instr
	mask uint64
	// addr is lane l's address register; crit puts every lane inside a
	// critical section (volatile global accesses); miss evicts the
	// lane's line from the L1 before each run, so loads take the miss
	// path through the MSHRs, the NoC and a partition.
	addr func(l int) uint64
	crit bool
	miss bool
}

const (
	hotShared = 0       // block-relative shared offset
	hotGlobal = 1 << 16 // global buffer base
)

func hotCases() []hotCase {
	full := fullMask(32)
	ld := func(sp isa.Space) isa.Instr {
		return isa.Instr{Op: isa.OpLd, Dst: rVal, SrcA: rAddr, Space: sp, Size: 4}
	}
	st := func(sp isa.Space) isa.Instr {
		return isa.Instr{Op: isa.OpSt, SrcA: rAddr, SrcB: rVal, Space: sp, Size: 4}
	}
	atom := func(sp isa.Space) isa.Instr {
		return isa.Instr{Op: isa.OpAtom, Dst: rTmp, AOp: isa.AtomAdd, SrcA: rAddr, SrcB: rVal, SrcC: rVal, Space: sp, Size: 4}
	}
	words := func(base uint64, stride int) func(int) uint64 {
		return func(l int) uint64 { return base + uint64(l*stride) }
	}
	return []hotCase{
		{name: "shared-ld", in: ld(isa.SpaceShared), mask: full, addr: words(hotShared, 4)},
		{name: "shared-st", in: st(isa.SpaceShared), mask: full, addr: words(hotShared, 4)},
		{name: "shared-st-conflicts", in: st(isa.SpaceShared), mask: full, addr: words(hotShared, 8)},
		{name: "shared-atom", in: atom(isa.SpaceShared), mask: full, addr: words(hotShared, 0)},
		{name: "global-ld", in: ld(isa.SpaceGlobal), mask: full, addr: words(hotGlobal, 4)},
		{name: "global-ld-miss", in: ld(isa.SpaceGlobal), mask: full, addr: words(hotGlobal, 4), miss: true},
		{name: "global-ld-straddle", in: ld(isa.SpaceGlobal), mask: full, addr: words(hotGlobal+2, 132)},
		{name: "global-ld-volatile", in: ld(isa.SpaceGlobal), mask: full, addr: words(hotGlobal, 4), crit: true},
		{name: "global-st", in: st(isa.SpaceGlobal), mask: full, addr: words(hotGlobal, 4)},
		{name: "global-atom-distinct", in: atom(isa.SpaceGlobal), mask: full, addr: words(hotGlobal, 4)},
		{name: "global-atom-dup", in: atom(isa.SpaceGlobal), mask: full, addr: func(l int) uint64 { return hotGlobal + uint64(l%4)*128 }},
		{name: "local-ld", in: ld(isa.SpaceLocal), mask: full, addr: words(0, 0)},
		{name: "local-st", in: st(isa.SpaceLocal), mask: full, addr: words(0, 0)},
		{name: "global-ld-divergent", in: ld(isa.SpaceGlobal), mask: 0x5555_5555, addr: words(hotGlobal, 4)},
		{name: "shared-st-divergent", in: st(isa.SpaceShared), mask: 0x0f0f_00ff, addr: words(hotShared, 4)},
	}
}

// regCases are register instructions issued through (*sm).exec, each
// under a full and a divergent mask.
func regCases() []hotCase {
	lane := func(l int) uint64 { return uint64(l) }
	var cases []hotCase
	for _, c := range []struct {
		name string
		in   isa.Instr
	}{
		{"add-imm", isa.Instr{Op: isa.OpAdd, Dst: rTmp, SrcA: rVal, Imm: 3, UseImm: true}},
		{"mad", isa.Instr{Op: isa.OpMad, Dst: rTmp, SrcA: rVal, SrcB: rAddr, SrcC: rTmp}},
		{"setp", isa.Instr{Op: isa.OpSetp, PD: 1, Cmp: isa.CmpLT, SrcA: rVal, SrcB: rAddr}},
		{"fmul", isa.Instr{Op: isa.OpFMul, Dst: rTmp, SrcA: rVal, SrcB: rAddr}},
		{"sreg", isa.Instr{Op: isa.OpSreg, Dst: rTmp, Imm: int64(isa.SregGtid)}},
	} {
		c.in.Pred = isa.NoPred
		cases = append(cases,
			hotCase{name: c.name, in: c.in, mask: fullMask(32), addr: lane},
			hotCase{name: c.name + "-divergent", in: c.in, mask: 0x5555_5555, addr: lane})
	}
	return cases
}

// hotRig is one SM holding one resident 32-thread block, on which a
// hotCase executes outside a launch loop.
type hotRig struct {
	s     *sm
	w     *warp
	k     *Kernel
	st    LaunchStats
	cycle int64
	c     hotCase
}

func newHotRig(tb testing.TB, det Detector, c hotCase) *hotRig {
	tb.Helper()
	cfg := TestConfig()
	cfg.LocalBytesPerThread = 64
	dev, err := NewDevice(cfg, 1<<20, det)
	if err != nil {
		tb.Fatal(err)
	}
	dev.MustMalloc(hotGlobal + 64<<10)
	dev.localBase = dev.MustMalloc(32 * cfg.LocalBytesPerThread)
	k := &Kernel{Name: "hot", Prog: &isa.Program{Code: []isa.Instr{c.in}}, GridDim: 1, BlockDim: 32, SharedBytes: 4 << 10}
	dev.launch = k
	det.KernelStart(dev, k.Name)
	s := dev.sms[0]
	s.place(0, 0, k, 0)
	w := s.warps[0]
	for l := range w.regs {
		w.regs[l].Regs[rAddr] = c.addr(l)
		w.regs[l].Regs[rVal] = uint64(l + 1)
		if c.crit {
			w.locks[l] = lockState{sig: 1, critDepth: 1}
		}
	}
	return &hotRig{s: s, w: w, k: k, c: c}
}

// step executes the case's instruction once, well after the previous
// one has drained: a register instruction through exec, as issue runs
// it, a memory instruction through memInstr.
func (r *hotRig) step() {
	r.cycle += 10000
	if r.c.in.Op.IsReg() {
		r.w.pc, r.w.mask = 0, r.c.mask
		r.s.exec(r.w, r.cycle, r.k, &r.st)
		return
	}
	if r.c.miss {
		for l := range r.w.regs {
			r.s.l1.Invalidate(r.c.addr(l) &^ 127)
		}
	}
	r.s.memInstr(r.w, &r.c.in, r.c.mask, r.cycle, r.k, &r.st)
	if r.s.pendingErr != nil {
		panic(r.s.pendingErr)
	}
}

// TestSimMemPathAllocFree: once warm, a warp memory instruction of
// every kind allocates nothing. The per-SM event, lane and line
// scratch, the map-free coalescer and the bank-conflict model make
// this hold; a regression shows up here before it shows in a
// benchmark's allocation figure.
func TestSimMemPathAllocFree(t *testing.T) {
	for _, c := range hotCases() {
		t.Run(c.name, func(t *testing.T) {
			det := &laneReader{}
			r := newHotRig(t, det, c)
			for i := 0; i < 4; i++ {
				r.step()
			}
			if n := testing.AllocsPerRun(100, r.step); n != 0 {
				t.Errorf("%v allocs per instruction, want 0", n)
			}
			want := bits.OnesCount64(c.mask)
			if c.in.Space == isa.SpaceLocal {
				if det.events != 0 {
					t.Errorf("local accesses produced %d detector events", det.events)
				}
			} else if det.lanes != want {
				t.Errorf("last event carried %d lanes, want %d", det.lanes, want)
			}
		})
	}
}

// TestSimRegPathAllocFree: a register instruction issued through exec
// allocates nothing.
func TestSimRegPathAllocFree(t *testing.T) {
	for _, c := range regCases() {
		t.Run(c.name, func(t *testing.T) {
			r := newHotRig(t, &laneReader{}, c)
			r.step()
			if n := testing.AllocsPerRun(100, r.step); n != 0 {
				t.Errorf("%v allocs per instruction, want 0", n)
			}
		})
	}
}

// BenchmarkSimHotPath measures the simulator's cost per warp
// instruction on each hotCase and regCase: memory instructions next to
// core's BenchmarkRDUHotPath for the detector's share of the same
// instruction, register instructions as exec issues them. allocs/op
// must read 0 (TestSimMemPathAllocFree, TestSimRegPathAllocFree).
func BenchmarkSimHotPath(b *testing.B) {
	for _, c := range append(hotCases(), regCases()...) {
		b.Run(c.name, func(b *testing.B) {
			r := newHotRig(b, &laneReader{}, c)
			r.step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.step()
			}
		})
	}
}
