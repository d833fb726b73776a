package haccrg

import (
	"runtime"
	"testing"
)

// TestSuiteAllocBudget bounds what one pass of the ten Table II
// benchmarks through RunBenchmark allocates, at scale 1 on the Table I
// machine under the paper's detection configuration. A pass builds ten
// devices and detectors; an SM that hosts no block builds no tile, L1
// or scratch, and race bookkeeping allocates per table, not per race.
// The budgets are about 10% over what such a pass measured (16.1 MB
// and 6.5k objects, the same under -race); when every SM built its
// caches and every race was its own object, a pass took 26.8 MB and
// 18.7k objects.
func TestSuiteAllocBudget(t *testing.T) {
	const (
		budgetBytes   = 17_700_000
		budgetObjects = 7_150
	)
	det := DefaultDetection()
	pass := func() {
		for _, b := range Benchmarks() {
			if _, err := RunBenchmark(b.Name, RunOptions{Detection: &det, Scale: 1}); err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
		}
	}
	pass() // warm the kernel program cache
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	pass()
	runtime.ReadMemStats(&b)
	bytes, objects := b.TotalAlloc-a.TotalAlloc, b.Mallocs-a.Mallocs
	t.Logf("one suite pass: %d bytes, %d objects", bytes, objects)
	if bytes > budgetBytes || objects > budgetObjects {
		t.Errorf("one suite pass allocated %d bytes and %d objects; budgets %d and %d",
			bytes, objects, budgetBytes, budgetObjects)
	}
}
