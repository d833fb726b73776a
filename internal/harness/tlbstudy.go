package harness

import (
	"fmt"

	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/isa"
	"haccrg/internal/kernels"
	"haccrg/internal/tlb"
)

// traceDetector records the global-memory address stream of a run; it
// feeds the Section IV-B virtual-memory study.
type traceDetector struct {
	gpu.NopDetector
	addrs []uint64
	limit int
}

func (t *traceDetector) Name() string { return "trace" }

func (t *traceDetector) WarpMem(ev *gpu.WarpMemEvent) int64 {
	if ev.Space != isa.SpaceGlobal || len(t.addrs) >= t.limit {
		return 0
	}
	for i := range ev.Lanes {
		if len(t.addrs) >= t.limit {
			break
		}
		t.addrs = append(t.addrs, ev.Lanes[i].Addr)
	}
	return 0
}

// TLBResult compares the paper's two shadow-translation mechanisms
// over one benchmark's real global-address trace.
type TLBResult struct {
	Bench    string
	Accesses int
	Appended tlb.Stats
	Separate tlb.Stats
}

// TLBStudy captures each benchmark's global-memory address trace and
// evaluates Section IV-B's two TLB designs (tlb.DefaultConfig) over it
// and its global shadow slots at the default granularity: the
// appended-tag-bit shared TLB versus the dedicated shadow TLB.
func TLBStudy(scale int) ([]TLBResult, string, error) {
	gran := uint64(core.DefaultOptions().GlobalGranularity)
	var out []TLBResult
	var txt [][]string
	for _, bm := range kernels.All() {
		tr := &traceDetector{limit: 1 << 20}
		dev, plan, err := RunConfig{Bench: bm.Name, Scale: scale}.build(gpu.DefaultConfig(), tr)
		if err != nil {
			return nil, "", err
		}
		if _, err := plan.Run(dev); err != nil {
			return nil, "", err
		}
		mem := dev.GlobalMemSize()
		shadowOf := func(addr uint64) uint64 { return core.GlobalSlotAddr(mem, addr/gran) }
		app, sep, err := tlb.Compare(tlb.DefaultConfig, tr.addrs, shadowOf, true)
		if err != nil {
			return nil, "", err
		}
		res := TLBResult{Bench: bm.Name, Accesses: len(tr.addrs), Appended: app, Separate: sep}
		out = append(out, res)
		speedup := 0.0
		if sep.Cycles > 0 {
			speedup = float64(app.Cycles) / float64(sep.Cycles)
		}
		txt = append(txt, []string{
			bm.Name,
			fmt.Sprint(res.Accesses),
			fmt.Sprintf("%.2f%%", 100*app.MissRate()),
			fmt.Sprintf("%.2f%%", 100*sep.MissRate()),
			fmt.Sprintf("%.2fx", speedup),
		})
	}
	return out, table(
		[]string{"benchmark", "accesses", "appended-bit miss", "separate-TLB miss", "translation speedup"},
		txt), nil
}
