package staticrace_test

import (
	"testing"

	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/kernels"
	"haccrg/internal/staticrace"
)

// suitePlan is one Table II benchmark's launch plan, built once.
type suitePlan struct {
	name string
	ks   []*gpu.Kernel
}

// suitePlans builds the plans one perfbench suite-filter op analyzes:
// the ten Table II benchmarks at scale 1 on the Table I device.
func suitePlans(tb testing.TB) []suitePlan {
	tb.Helper()
	var out []suitePlan
	for _, bm := range kernels.All() {
		dev, err := gpu.NewDevice(gpu.DefaultConfig(), bm.GlobalBytes(1), nil)
		if err != nil {
			tb.Fatal(err)
		}
		plan, err := bm.Build(dev, kernels.Params{Scale: 1})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, suitePlan{name: bm.Name, ks: plan.Kernels})
	}
	return out
}

// suiteConf is the analyzer configuration the default detector implies.
func suiteConf() staticrace.Config {
	opt := core.DefaultOptions()
	return staticrace.Config{
		WarpSize:          gpu.DefaultConfig().WarpSize,
		SharedGranularity: opt.SharedGranularity,
		GlobalGranularity: opt.GlobalGranularity,
		WarpAware:         opt.WarpAware,
	}
}

// BenchmarkAnalyzeSuite measures the static filter's cost per
// benchmark: one NewFilter over the benchmark's plan, as a
// StaticFilter run builds it.
func BenchmarkAnalyzeSuite(b *testing.B) {
	plans := suitePlans(b)
	conf := suiteConf()
	for _, p := range plans {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := staticrace.NewFilter(conf, p.ks...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// analyzeAllocBudget bounds the allocations of analyzing the whole
// suite once.
const analyzeAllocBudget = 40_000

// TestAnalyzeAllocBudget keeps the analyzer allocation-lean: building
// the filters for all ten suite plans stays within analyzeAllocBudget
// allocations.
func TestAnalyzeAllocBudget(t *testing.T) {
	plans := suitePlans(t)
	conf := suiteConf()
	allocs := testing.AllocsPerRun(1, func() {
		for _, p := range plans {
			if _, err := staticrace.NewFilter(conf, p.ks...); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("%.0f allocs per suite analysis (budget %d)", allocs, analyzeAllocBudget)
	if allocs > analyzeAllocBudget {
		t.Errorf("suite analysis made %.0f allocs, budget %d", allocs, analyzeAllocBudget)
	}
}
