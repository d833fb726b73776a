package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// setParallelism installs a sweep worker count for one test and
// restores the default afterwards.
func setParallelism(t *testing.T, n int) {
	t.Helper()
	SetParallelism(n)
	t.Cleanup(func() { SetParallelism(0) })
}

// renderResults serializes everything an experiment table could be
// built from — stats, races, health — so two sweeps can be compared
// byte for byte.
func renderResults(t *testing.T, rs []*RunResult) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteHealthCSV(&buf, rs); err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		fmt.Fprintf(&buf, "%s/%s cycles=%d dram=%.6f attempts=%d\n",
			r.Config.Bench, r.Config.Detector, r.Stats.Cycles, r.Stats.DRAMUtil, r.Attempts)
		for _, race := range r.Races {
			fmt.Fprintf(&buf, "  %+v\n", *race)
		}
	}
	return buf.String()
}

// sweepTestConfigs is a mixed workload: several benchmarks and
// detector kinds, including fault-injected runs whose results depend
// on the (plan, seed) PRNG stream.
func sweepTestConfigs() []RunConfig {
	var cfgs []RunConfig
	for _, bench := range []string{"scan", "reduce", "hash"} {
		for _, kind := range []DetectorKind{DetOff, DetSharedGlobal} {
			cfgs = append(cfgs, RunConfig{
				Bench: bench, Detector: kind, GPU: testGPU(), SingleBlock: bench == "scan",
			})
		}
		cfgs = append(cfgs, RunConfig{
			Bench: bench, Detector: DetSharedGlobal, GPU: testGPU(),
			SingleBlock: bench == "scan",
			FaultPlan:   "flip:rate=2e-4;queue:cap=8,drain=1", FaultSeed: 42,
		})
	}
	return cfgs
}

// TestSweepParallelMatchesSerial is the engine's determinism
// invariant: a parallel sweep must be byte-identical to Parallelism=1
// on the same configurations, fault-injected runs included.
func TestSweepParallelMatchesSerial(t *testing.T) {
	cfgs := sweepTestConfigs()

	setParallelism(t, 1)
	serial, err := sweepAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	want := renderResults(t, serial)

	for _, workers := range []int{4, 2 * runtime.GOMAXPROCS(0)} {
		SetParallelism(workers)
		par, err := sweepAll(cfgs)
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		if got := renderResults(t, par); got != want {
			t.Errorf("parallelism %d diverged from serial sweep:\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, want, got)
		}
	}
}

// TestSweepResultOrder checks input-order assembly: results[i] must
// belong to cfgs[i] regardless of completion order.
func TestSweepResultOrder(t *testing.T) {
	setParallelism(t, 8)
	cfgs := sweepTestConfigs()
	results, err := sweepAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(cfgs) {
		t.Fatalf("got %d results for %d configs", len(results), len(cfgs))
	}
	for i, r := range results {
		if r == nil {
			t.Fatalf("result %d is nil", i)
		}
		if r.Config.Bench != cfgs[i].Bench || r.Config.Detector != cfgs[i].Detector ||
			r.Config.FaultPlan != cfgs[i].FaultPlan {
			t.Errorf("result %d is for %s/%s/%q, want %s/%s/%q", i,
				r.Config.Bench, r.Config.Detector, r.Config.FaultPlan,
				cfgs[i].Bench, cfgs[i].Detector, cfgs[i].FaultPlan)
		}
	}
}

// TestFaultStudyParallelDeterminism lifts the invariant to a full
// experiment driver: the rendered fault-study table under a fixed seed
// must not depend on the worker count.
func TestFaultStudyParallelDeterminism(t *testing.T) {
	setParallelism(t, 1)
	_, serialTxt, err := FaultStudy(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	SetParallelism(6)
	_, parTxt, err := FaultStudy(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if serialTxt != parTxt {
		t.Errorf("fault-study table depends on parallelism:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialTxt, parTxt)
	}
}

// TestSweepErrorSerial: with one worker the engine reports the first
// failure in input order and stops, like the old serial loops.
func TestSweepErrorSerial(t *testing.T) {
	setParallelism(t, 1)
	cfgs := []RunConfig{
		{Bench: "scan", Detector: DetOff, GPU: testGPU(), SingleBlock: true},
		{Bench: "no-such-bench-a"},
		{Bench: "no-such-bench-b"},
	}
	_, err := sweepAll(cfgs)
	if err == nil {
		t.Fatal("sweep with unknown benchmark succeeded")
	}
	if !strings.Contains(err.Error(), "no-such-bench-a") {
		t.Errorf("serial sweep reported %v, want the first failing config", err)
	}
}

// TestSweepErrorParallel: a failure anywhere surfaces as a genuine
// error (never a cancellation casualty) and fails the whole sweep.
func TestSweepErrorParallel(t *testing.T) {
	setParallelism(t, 4)
	cfgs := []RunConfig{
		{Bench: "scan", Detector: DetOff, GPU: testGPU(), SingleBlock: true},
		{Bench: "reduce", Detector: DetOff, GPU: testGPU()},
		{Bench: "no-such-bench"},
		{Bench: "hash", Detector: DetOff, GPU: testGPU()},
	}
	res, err := sweepAll(cfgs)
	if err == nil {
		t.Fatal("sweep with unknown benchmark succeeded")
	}
	if !strings.Contains(err.Error(), "unknown benchmark") {
		t.Errorf("sweep reported %v, want the unknown-benchmark error", err)
	}
	if res != nil {
		t.Errorf("failed sweep returned results: %v", res)
	}
}

// TestSweepCancelled: an already-cancelled context fails fast without
// running anything.
func TestSweepCancelled(t *testing.T) {
	setParallelism(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sweepAllCtx(ctx, sweepTestConfigs()); err == nil {
		t.Fatal("cancelled sweep succeeded")
	}
}

// TestParallelismResolution pins the setter/getter contract.
func TestParallelismResolution(t *testing.T) {
	setParallelism(t, 0)
	if got := Parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default parallelism = %d, want GOMAXPROCS (%d)", got, runtime.GOMAXPROCS(0))
	}
	SetParallelism(5)
	if got := Parallelism(); got != 5 {
		t.Errorf("Parallelism() = %d after SetParallelism(5)", got)
	}
	SetParallelism(-3)
	if got := Parallelism(); got < 1 {
		t.Errorf("Parallelism() = %d, want >= 1", got)
	}
}

// TestSweepRunCancellationClassified pins the retry-loop fix: a sweep
// run cut down by context cancellation must surface an error that
// errors.Is classifies as the cancellation, not as a genuine run
// failure — SIGTERM during a retrying sweep is resumable state.
func TestSweepRunCancellationClassified(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rc := RunConfig{Bench: "psum", Detector: DetSharedGlobal, GPU: testGPU()}
	if _, err := sweepRunManifest(ctx, rc, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep run: err = %v, want context.Canceled classification", err)
	}
}
