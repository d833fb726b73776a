package harness

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"haccrg/internal/journal"
)

// TestValidate: every rejection class, and which of them name
// something that does not exist (ErrUnknown: the CLIs' usage errors).
func TestValidate(t *testing.T) {
	ok := RunConfig{Bench: "reduce", Detector: DetSharedGlobal}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, c := range []struct {
		mod     func(*RunConfig)
		unknown bool
	}{
		{func(rc *RunConfig) { rc.Bench = "nope" }, true},
		{func(rc *RunConfig) { rc.Detector = "bogus" }, true},
		{func(rc *RunConfig) { rc.Degradation = "explode" }, true},
		{func(rc *RunConfig) { rc.Inject = []string{"reduce.fenc0"} }, true},
		{func(rc *RunConfig) { rc.Inject = []string{"psum.fence0"} }, true},
		{func(rc *RunConfig) { rc.FaultPlan = "nonsense:::" }, false},
		{func(rc *RunConfig) { rc.SharedGranularity = 3 }, false},
		{func(rc *RunConfig) { rc.GlobalGranularity = -4 }, false},
		{func(rc *RunConfig) { rc.Detector, rc.FaultPlan = DetOff, "queue:cap=16,drain=1" }, false},
		{func(rc *RunConfig) { rc.Detector, rc.StaticFilter = DetSoftware, true }, false},
		{func(rc *RunConfig) { rc.Detector, rc.WitnessSeed = DetOff, true }, false},
		{func(rc *RunConfig) { rc.Scale = -1 }, false},
		{func(rc *RunConfig) { rc.MaxCycles = -5 }, false},
		{func(rc *RunConfig) { rc.Timeout = -time.Second }, false},
	} {
		rc := ok
		c.mod(&rc)
		err := rc.Validate()
		if err == nil {
			t.Errorf("%+v accepted", rc)
			continue
		}
		if errors.Is(err, ErrUnknown) != c.unknown {
			t.Errorf("%+v: %v; wraps ErrUnknown = %t, want %t", rc, err, !c.unknown, c.unknown)
		}
	}
}

// TestSweepDefaultFaultPlanOnOffRuns: the sweep defaults merge their
// fault plan into a detector-off baseline's manifest key, and the run
// still executes (without the plan, which it has no pipeline for); a
// plan that does not parse fails it, once, as it fails every other run.
func TestSweepDefaultFaultPlanOnOffRuns(t *testing.T) {
	m, _, err := OpenManifest(filepath.Join(t.TempDir(), "sweep.manifest"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rc := RunConfig{Bench: "scan", Detector: DetOff, GPU: testGPU(), SingleBlock: true}
	res, err := Sweep{Manifest: m, FaultPlan: "queue:cap=16,drain=1", FaultSeed: 7}.Run([]RunConfig{rc})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ExecContext(context.Background(), rc, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Config; got.FaultPlan != "queue:cap=16,drain=1" || got.FaultSeed != 7 {
		t.Errorf("result config %+v lost the merged plan", got)
	}
	if res[0].Stats.Cycles != plain.Stats.Cycles {
		t.Errorf("off run with a merged plan: %d cycles, %d without", res[0].Stats.Cycles, plain.Stats.Cycles)
	}
	key := rc
	key.FaultPlan, key.FaultSeed = "queue:cap=16,drain=1", 7
	if _, ok := m.Lookup(key); !ok {
		t.Error("manifest does not hold the run under its merged key")
	}

	before := sweepExecutions.Load()
	if _, err := (Sweep{FaultPlan: "nonsense:::"}).Run([]RunConfig{rc}); err == nil {
		t.Error("a sweep default plan that does not parse was accepted")
	}
	if n := sweepExecutions.Load() - before; n != 1 {
		t.Errorf("the unparseable plan executed %d times, want once", n)
	}
}

// TestJournalReplaysAtRunGranularities: a run at granularities other
// than the paper's records them in its journal's meta record under
// every detector kind, grace-addr included, so the detector
// DetectorForJournal rebuilds replays to the live verdict.
func TestJournalReplaysAtRunGranularities(t *testing.T) {
	for _, kind := range detectorKinds {
		rc := RunConfig{Bench: "hist", Detector: kind, GPU: testGPU(), SharedGranularity: 4, GlobalGranularity: 8}
		var jnl bytes.Buffer
		if _, err := ExecContext(context.Background(), rc, ExecOptions{Record: &jnl}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		det, _, err := DetectorForJournal(bytes.NewReader(jnl.Bytes()), "")
		if err != nil {
			t.Fatal(err)
		}
		res, err := journal.Replay(bytes.NewReader(jnl.Bytes()), det)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Match {
			t.Errorf("%s: recorded %d races, replayed %d", kind, len(res.Recorded), len(res.Replayed))
		}
	}
}
