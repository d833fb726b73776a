package harness

import (
	"bytes"
	"context"
	"errors"
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
		{func(rc *RunConfig) { rc.Detector, rc.FaultPlan = DetGRace, "queue:cap=16,drain=1" }, false},
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
