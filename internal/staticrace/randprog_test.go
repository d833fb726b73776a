package staticrace_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/isa"
	"haccrg/internal/staticrace"
)

// Register/pred conventions for generated programs: scratch registers
// r4..r11, loop counters r22/r23 (never touched by random ops so every
// generated loop is counted and terminates), predicates p0..p2 for
// random Setp/If, p3/p4 reserved for the loop conditions.
const (
	gTid  = isa.Reg(1)
	gBid  = isa.Reg(2)
	gGtid = isa.Reg(3)
	gCnt0 = isa.Reg(22)
	gCnt1 = isa.Reg(23)
)

type genFrame struct {
	loop bool
	cnt  isa.Reg
	pred isa.Pred
	n    int64
}

// genKernel decodes a byte stream into a random structured kernel that
// is safe to actually launch: addresses are masked into the shared and
// global segments, loops are counted on reserved registers, and BAR is
// only emitted outside control structures (a divergent barrier would
// deadlock the dynamic run the soundness test needs). Returns nil when
// the builder rejects the program.
func genKernel(name string, data []byte) *gpu.Kernel {
	b := isa.NewBuilder(name)
	b.Sreg(gTid, isa.SregTid)
	b.Sreg(gBid, isa.SregCtaid)
	b.Sreg(gGtid, isa.SregGtid)

	scratch := func(x byte) isa.Reg { return isa.Reg(4 + int(x)%8) }
	pred := func(x byte) isa.Pred { return isa.Pred(int(x) % 3) }

	var stack []genFrame
	pop := func() {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.loop {
			b.Addi(f.cnt, f.cnt, 1)
			b.Setpi(f.pred, isa.CmpLT, f.cnt, f.n)
			b.EndWhile()
		} else {
			b.EndIf()
		}
	}

	i := 0
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		v := data[i]
		i++
		return v
	}
	steps := len(data) / 2
	if steps > 48 {
		steps = 48
	}
	for s := 0; s < steps; s++ {
		op, arg := next(), next()
		d, a := scratch(arg), scratch(arg>>3)
		switch op % 18 {
		case 0:
			b.Addi(d, a, int64(arg%16))
		case 1:
			b.Muli(d, a, int64(arg%8))
		case 2:
			b.Andi(d, a, int64(arg))
		case 3:
			b.Add(d, a, scratch(arg>>5))
		case 4:
			b.Sub(d, a, scratch(arg>>5))
		case 5:
			b.Mul(d, gTid, a)
		case 6:
			b.Setpi(pred(arg), isa.CmpLT, a, int64(arg%64))
		case 7:
			b.Setp(pred(arg), isa.CmpEQ, a, scratch(arg>>4))
		case 8:
			b.Selp(d, pred(arg), a, scratch(arg>>5))
		case 9:
			if len(stack) < 2 {
				b.If(pred(arg))
				stack = append(stack, genFrame{})
			}
		case 10:
			if len(stack) < 2 {
				cnt := gCnt0
				if len(stack) == 1 {
					cnt = gCnt1
				}
				p := isa.Pred(3 + len(stack))
				n := int64(2 + arg%3)
				b.Movi(cnt, 0)
				b.Setpi(p, isa.CmpLT, cnt, n)
				b.While(p)
				stack = append(stack, genFrame{loop: true, cnt: cnt, pred: p, n: n})
			}
		case 11:
			if len(stack) > 0 {
				pop()
			}
		case 12:
			if len(stack) == 0 {
				b.Bar()
			}
		case 13:
			b.Membar()
		case 14:
			b.Andi(d, a, 252)
			if arg&1 == 0 {
				b.St(isa.SpaceShared, d, 0, scratch(arg>>4), 4)
			} else {
				b.Ld(scratch(arg>>4), isa.SpaceShared, d, 0, 4)
			}
		case 15:
			b.Andi(d, a, 1020)
			if arg&1 == 0 {
				b.St(isa.SpaceGlobal, d, 0, scratch(arg>>4), 4)
			} else {
				b.Ld(scratch(arg>>4), isa.SpaceGlobal, d, 0, 4)
			}
		case 16:
			b.Andi(d, a, 1020)
			b.Atom(scratch(arg>>4), isa.AtomAdd, isa.SpaceGlobal, d, 0, scratch(arg>>2), 0)
		case 17:
			b.Shri(d, a, int64(arg%5))
		}
	}
	for len(stack) > 0 {
		pop()
	}
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		return nil
	}
	return &gpu.Kernel{
		Name: name, Prog: prog,
		GridDim: 2, BlockDim: 64, SharedBytes: 256,
	}
}

// launchWithDetector runs one kernel under a fresh HAccRG detector.
func launchWithDetector(t *testing.T, k *gpu.Kernel, f core.StaticFilter) *core.Detector {
	t.Helper()
	det := core.MustNew(core.DefaultOptions())
	if f != nil {
		det.SetStaticFilter(f)
	}
	dev, err := gpu.NewDevice(gpu.TestConfig(), 1<<16, det)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.LaunchContext(context.Background(), k, gpu.LaunchLimits{MaxCycles: 5_000_000}); err != nil {
		t.Fatalf("launch %s: %v\n%s", k.Name, err, k.Prog.Disassemble())
	}
	return det
}

// raceSummary renders races for exact comparison.
func raceSummary(races []*core.Race) string {
	var sb strings.Builder
	for _, r := range races {
		fmt.Fprintf(&sb, "%s/%s/%s/pc%d/g%d/%d-%d x%d\n",
			r.Space, r.Kind, r.Category, r.PC, r.Granule, r.FirstTid, r.SecondTid, r.Count)
	}
	return sb.String()
}

// detectorConf mirrors the analyzer configuration the detector's
// options imply.
func detectorConf() staticrace.Config {
	opt := core.DefaultOptions()
	cfg := gpu.TestConfig()
	return staticrace.Config{
		WarpSize:          cfg.WarpSize,
		SharedGranularity: opt.SharedGranularity,
		GlobalGranularity: opt.GlobalGranularity,
	}
}

// TestRandomProgramSoundness is the prover's differential soundness
// sweep: for a corpus of randomized builder-generated programs, (a) no
// dynamically-reported race may land on a site the prover marked
// filterable, and (b) findings with the filter attached must be
// byte-identical to the unfiltered run.
func TestRandomProgramSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	conf := detectorConf()
	analyzed, raced := 0, 0
	for n := 0; n < 60; n++ {
		data := make([]byte, 40+rng.Intn(60))
		rng.Read(data)
		k := genKernel(fmt.Sprintf("rand%03d", n), data)
		if k == nil {
			continue
		}
		f, err := staticrace.NewFilter(conf, k)
		if err != nil {
			t.Fatalf("sample %d: analysis failed: %v\n%s", n, err, k.Prog.Disassemble())
		}
		analyzed++
		mask := f.FilterSites(k.Name)
		off := launchWithDetector(t, k, nil)
		on := launchWithDetector(t, k, f)
		for _, r := range off.SortedRaces() {
			if r.PC >= 0 && r.PC < len(mask) && mask[r.PC] {
				t.Errorf("sample %d: dynamic race at pc %d on a site proven race-free\n%s",
					n, r.PC, k.Prog.Disassemble())
			}
		}
		if got, want := raceSummary(on.SortedRaces()), raceSummary(off.SortedRaces()); got != want {
			t.Errorf("sample %d: filtered findings diverged\n on: %s\noff: %s\n%s",
				n, got, want, k.Prog.Disassemble())
		}
		if len(off.SortedRaces()) > 0 {
			raced++
		}
	}
	if analyzed < 30 {
		t.Fatalf("only %d samples survived generation; corpus too thin", analyzed)
	}
	if raced == 0 {
		t.Fatal("no random sample raced dynamically; the oracle never bit")
	}
	t.Logf("%d samples analyzed, %d runs with dynamic races", analyzed, raced)
}
