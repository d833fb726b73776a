package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"haccrg/internal/gpu"
)

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
		fmt.Fprintf(&buf, "%s/%s cycles=%d dram=%.6f\n",
			r.Config.Bench, r.Config.Detector, r.Stats.Cycles, r.Stats.DRAMUtil)
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
// invariant: a parallel sweep must be byte-identical to a serial one
// on the same configurations, fault-injected runs included.
func TestSweepParallelMatchesSerial(t *testing.T) {
	cfgs := sweepTestConfigs()

	serial, err := Sweep{Workers: 1}.Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	want := renderResults(t, serial)

	for _, workers := range []int{4, 2 * runtime.GOMAXPROCS(0)} {
		par, err := Sweep{Workers: workers}.Run(cfgs)
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
	cfgs := sweepTestConfigs()
	results, err := Sweep{Workers: 8}.Run(cfgs)
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
	_, serialTxt, err := Sweep{Workers: 1}.FaultStudy(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	_, parTxt, err := Sweep{Workers: 6}.FaultStudy(1, 7)
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
	cfgs := []RunConfig{
		{Bench: "scan", Detector: DetOff, GPU: testGPU(), SingleBlock: true},
		{Bench: "no-such-bench-a"},
		{Bench: "no-such-bench-b"},
	}
	_, err := Sweep{Workers: 1}.Run(cfgs)
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
	cfgs := []RunConfig{
		{Bench: "scan", Detector: DetOff, GPU: testGPU(), SingleBlock: true},
		{Bench: "reduce", Detector: DetOff, GPU: testGPU()},
		{Bench: "no-such-bench"},
		{Bench: "hash", Detector: DetOff, GPU: testGPU()},
	}
	res, err := Sweep{Workers: 4}.Run(cfgs)
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
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Sweep{Ctx: ctx, Workers: 4}).Run(sweepTestConfigs()); err == nil {
		t.Fatal("cancelled sweep succeeded")
	}
}

// TestParallelismResolution pins how a sweep resolves its worker
// count: 0 is GOMAXPROCS, a positive count is taken as given, and a
// negative one still leaves at least one worker.
func TestParallelismResolution(t *testing.T) {
	if got := (Sweep{}).workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default workers = %d, want GOMAXPROCS (%d)", got, runtime.GOMAXPROCS(0))
	}
	if got := (Sweep{Workers: 5}).workers(); got != 5 {
		t.Errorf("Workers 5 resolves to %d", got)
	}
	if got := (Sweep{Workers: -3}).workers(); got < 1 {
		t.Errorf("Workers -3 resolves to %d, want >= 1", got)
	}
}

// TestSweepRunCancellationClassified: a sweep run cut down by context
// cancellation must surface an error that errors.Is classifies as the
// cancellation, not as a genuine run failure — SIGTERM during a sweep
// is resumable state.
func TestSweepRunCancellationClassified(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rc := RunConfig{Bench: "psum", Detector: DetSharedGlobal, GPU: testGPU()}
	if _, err := (Sweep{}).runOne(ctx, rc); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep run: err = %v, want context.Canceled classification", err)
	}
}

// TestSweepFailedRunExecutesOnce: a fault-injected configuration that
// fails is executed once and its error returned as it is. Its
// cycle-budget trip draws no random number, so it recurs under any
// seed, and a run is a function of its config, seed included.
func TestSweepFailedRunExecutesOnce(t *testing.T) {
	rc := RunConfig{
		Bench: "hash", Detector: DetSharedGlobal, GPU: testGPU(),
		FaultPlan: "spike:extra=500,period=32", FaultSeed: 7, MaxCycles: 50,
	}
	before := sweepExecutions.Load()
	_, err := Sweep{}.runOne(context.Background(), rc)
	var hang *gpu.HangError
	if !errors.As(err, &hang) {
		t.Fatalf("err = %v, want a *gpu.HangError", err)
	}
	if n := sweepExecutions.Load() - before; n != 1 {
		t.Errorf("the failed run executed %d times, want once", n)
	}
}
