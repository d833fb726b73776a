package haccrg

// One benchmark per table and figure of the paper's evaluation
// section. Each bench regenerates its artifact end-to-end and reports
// the headline quantity as a custom metric, so `go test -bench=.`
// reproduces the whole evaluation. The benches run one iteration of
// the full experiment per b.N step; they are simulations, so the
// interesting output is the reported metric, not ns/op.

import (
	"math"
	"runtime"
	"testing"
	"time"

	"haccrg/internal/harness"
)

// benchScale keeps the full-evaluation benches tractable while staying
// in the bandwidth-sensitive regime (see EXPERIMENTS.md for the scale
// sensitivity study).
const benchScale = 2

func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if harness.Table1(DefaultGPU()) == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2Mix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := harness.Sweep{}.Table2(1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Bench == "psum" {
				b.ReportMetric(r.GlobalReadPc, "psum-global-read-%")
			}
			if r.Bench == "scan" {
				b.ReportMetric(r.SharedReadPc, "scan-shared-read-%")
			}
		}
	}
}

func BenchmarkTable3Granularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		shared, _, _, err := harness.Sweep{}.Table3(1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range shared {
			if r.Bench == "hist" {
				b.ReportMetric(float64(r.False[16]), "hist-false-races-16B")
			}
		}
	}
}

func BenchmarkTable4Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bytes, _, err := harness.Table4(1)
		if err != nil {
			b.Fatal(err)
		}
		total := int64(0)
		for _, v := range bytes {
			total += v
		}
		b.ReportMetric(float64(total)/(1<<20), "total-shadow-MB")
	}
}

func BenchmarkFig7Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := harness.Sweep{}.Fig7(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		gmShared, gmBoth := 1.0, 1.0
		for _, r := range rows {
			gmShared *= r.Shared
			gmBoth *= r.SharedGlobal
		}
		n := float64(len(rows))
		b.ReportMetric(pow(gmShared, 1/n), "geomean-shared")
		b.ReportMetric(pow(gmBoth, 1/n), "geomean-shared+global")
	}
}

func BenchmarkFig8SharedInGlobal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := harness.Sweep{}.Fig8(1)
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		var worstName string
		for _, r := range rows {
			if r.Software > worst {
				worst, worstName = r.Software, r.Bench
			}
		}
		b.ReportMetric(worst, "worst-slowdown")
		if worstName != "offt" {
			b.Logf("note: worst fig-8 benchmark is %s (paper: offt)", worstName)
		}
	}
}

func BenchmarkFig9DRAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := harness.Sweep{}.Fig9(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		var base, both float64
		for _, r := range rows {
			base += r.Off
			both += r.SharedGlobal
		}
		n := float64(len(rows))
		b.ReportMetric(100*base/n, "avg-util-%-base")
		b.ReportMetric(100*both/n, "avg-util-%-detect")
	}
}

func BenchmarkRealRaces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reps, _, err := harness.Sweep{}.RealRaces(1)
		if err != nil {
			b.Fatal(err)
		}
		buggy := 0
		for _, r := range reps {
			if r.GlobalSites > 0 {
				buggy++
			}
		}
		b.ReportMetric(float64(buggy), "benchmarks-with-races")
	}
}

func BenchmarkInjected41(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, _, err := harness.Sweep{}.Injected(1)
		if err != nil {
			b.Fatal(err)
		}
		detected := 0
		for _, r := range results {
			if r.Detected {
				detected++
			}
		}
		b.ReportMetric(float64(detected), "injected-detected")
		if detected != 41 {
			b.Fatalf("detected %d of 41 injected races", detected)
		}
	}
}

func BenchmarkBloomStress(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if harness.BloomStress() == "" {
			b.Fatal("empty bloom report")
		}
	}
}

func BenchmarkSWComparison(b *testing.B) {
	// The Section VI-B trio: SCAN, HIST, KMEANS under software HAccRG.
	for i := 0; i < b.N; i++ {
		for _, bench := range []string{"scan", "hist", "kmeans"} {
			base, err := harness.Run(harness.RunConfig{Bench: bench, Detector: harness.DetOff, Scale: benchScale})
			if err != nil {
				b.Fatal(err)
			}
			sw, err := harness.Run(harness.RunConfig{Bench: bench, Detector: harness.DetSoftware, Scale: benchScale})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(sw.Stats.Cycles)/float64(base.Stats.Cycles), bench+"-sw-slowdown")
		}
	}
}

func pow(x, y float64) float64 { return math.Pow(x, y) }

// BenchmarkParallelSweep measures the sweep engine's wall-clock win:
// the Figure 7 sweep serially and again at full parallelism. On a
// multi-core runner serial-s/parallel-s approaches min(NumCPU, sweep
// width); on one core the two collapse (and the engine must not be
// slower than the serial loop it replaced).
func BenchmarkParallelSweep(b *testing.B) {
	measure := func(b *testing.B, workers int) float64 {
		sw := harness.Sweep{Workers: workers}
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if _, _, err := sw.Fig7(benchScale); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start).Seconds() / float64(b.N)
	}
	var serial float64
	b.Run("serial", func(b *testing.B) {
		serial = measure(b, 1)
		b.ReportMetric(serial, "serial-s")
	})
	b.Run("parallel", func(b *testing.B) {
		par := measure(b, 0) // GOMAXPROCS workers
		b.ReportMetric(par, "parallel-s")
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
		if serial > 0 && par > 0 {
			b.ReportMetric(serial/par, "speedup")
		}
	})
}

// --- extension ablations beyond the paper's evaluation ---

func BenchmarkTLBAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, _, err := Experiments.TLBStudy(1)
		if err != nil {
			b.Fatal(err)
		}
		var app, sep int64
		for _, r := range results {
			app += r.Appended.Cycles
			sep += r.Separate.Cycles
		}
		if sep > 0 {
			b.ReportMetric(float64(app)/float64(sep), "separate-tlb-speedup")
		}
	}
}

func BenchmarkWarpRegroupAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Experiments.WarpRegroupStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSyncIDGatingAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Experiments.SyncIDGating(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBloomEndToEndAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Experiments.BloomEndToEnd(); err != nil {
			b.Fatal(err)
		}
	}
}
