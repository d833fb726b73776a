package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"haccrg/internal/core"
	"haccrg/internal/gpu"
)

// raceFingerprint summarizes a run's findings by stable identity
// (space/kind/PC/granule/accessors), deliberately ignoring Cycle and
// Count: a fault that merely shifts timing is not a divergence, one
// that adds or removes a finding is.
func raceFingerprint(races []*core.Race) string {
	keys := make([]string, 0, len(races))
	for _, r := range races {
		keys = append(keys, fmt.Sprintf("%s/%s/%s/pc%d/g%d/b%dt%d-b%dt%d",
			r.Space, r.Kind, r.Kernel, r.PC, r.Granule,
			r.FirstBlock, r.FirstTid, r.SecondBlock, r.SecondTid))
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// TestFaultPlansNeverDivergeSilently is the central robustness
// property: for every catalogued fault plan, either the findings match
// the fault-free baseline, or the run is flagged Degraded. A fault may
// change results, but never silently.
func TestFaultPlansNeverDivergeSilently(t *testing.T) {
	for _, bench := range faultStudyBenches {
		base, err := ExecContext(context.Background(), RunConfig{Bench: bench, Detector: DetSharedGlobal, GPU: testGPU()}, ExecOptions{})
		if err != nil {
			t.Fatalf("%s baseline: %v", bench, err)
		}
		if base.Health == nil {
			t.Fatalf("%s baseline: detector reported no health", bench)
		}
		if base.Health.Degraded {
			t.Fatalf("%s baseline degraded with no fault plan: %s", bench, base.Health)
		}
		baseFP := raceFingerprint(base.Races)
		for _, fp := range FaultStudyPlans {
			for seed := int64(1); seed <= 3; seed++ {
				res, err := ExecContext(context.Background(), RunConfig{
					Bench: bench, Detector: DetSharedGlobal, GPU: testGPU(),
					FaultPlan: fp.Plan, FaultSeed: seed,
				}, ExecOptions{})
				if err != nil {
					t.Fatalf("%s %s seed %d: %v", bench, fp.Label, seed, err)
				}
				if res.Health == nil {
					t.Fatalf("%s %s: faulted run has no health report", bench, fp.Label)
				}
				if got := raceFingerprint(res.Races); got != baseFP && !res.Health.Degraded {
					t.Errorf("%s %s seed %d: findings diverged from baseline but Degraded=false\nhealth: %s\nbase:\n%s\ngot:\n%s",
						bench, fp.Label, seed, res.Health, baseFP, got)
				}
			}
		}
	}
}

// TestFaultPlanUnderEveryKind extends the invariant to every detector
// kind: a plan that drops checks on hist is either refused by Validate,
// naming the kind, or reported by the run's Degraded health. A kind
// whose runs return no health report must not take a plan at all.
func TestFaultPlanUnderEveryKind(t *testing.T) {
	for _, kind := range detectorKinds {
		t.Run(string(kind), func(t *testing.T) {
			rc := RunConfig{Bench: "hist", Detector: kind, GPU: testGPU(), FaultPlan: "queue:cap=1,drain=1"}
			if err := rc.Validate(); err != nil {
				if !strings.Contains(err.Error(), string(kind)) {
					t.Errorf("refusal does not name the kind: %v", err)
				}
				return
			}
			res, err := ExecContext(context.Background(), rc, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Health == nil || !res.Health.Degraded {
				t.Errorf("checks dropped with no degraded health report: %v", res.Health)
			}
		})
	}
}

// TestFaultDeterminism: same plan + same seed must reproduce the run
// byte for byte — health counters and the race report alike.
func TestFaultDeterminism(t *testing.T) {
	rc := RunConfig{
		Bench: "hash", Detector: DetSharedGlobal, GPU: testGPU(),
		FaultPlan: "queue:cap=8,drain=1;flip:rate=2e-4;spike:extra=300,period=16",
		FaultSeed: 42,
	}
	a, err := ExecContext(context.Background(), rc, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExecContext(context.Background(), rc, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ha, hb := fmt.Sprintf("%+v", *a.Health), fmt.Sprintf("%+v", *b.Health); ha != hb {
		t.Errorf("health not reproducible:\n%s\n%s", ha, hb)
	}
	fpa, fpb := raceFingerprint(a.Races), raceFingerprint(b.Races)
	if fpa != fpb {
		t.Errorf("races not reproducible:\n%s\nvs\n%s", fpa, fpb)
	}
	if a.Stats.Cycles != b.Stats.Cycles {
		t.Errorf("cycles not reproducible: %d vs %d", a.Stats.Cycles, b.Stats.Cycles)
	}
	// A different seed with an aggressive plan should perturb at least
	// the health counters (the PRNG stream differs).
	rc.FaultSeed = 43
	c, err := ExecContext(context.Background(), rc, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", *c.Health) == fmt.Sprintf("%+v", *a.Health) &&
		c.Stats.Cycles == a.Stats.Cycles {
		t.Log("seed 43 reproduced seed 42 exactly (possible but suspicious)")
	}
}

// TestEmptyPlanIsFaultFree: a run with no plan must be identical to
// the seed behaviour — same cycles, same races, health "ok" — even
// when a seed or degradation policy is set.
func TestEmptyPlanIsFaultFree(t *testing.T) {
	plain, err := ExecContext(context.Background(), RunConfig{Bench: "reduce", Detector: DetSharedGlobal, GPU: testGPU()}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfgd, err := ExecContext(context.Background(), RunConfig{
		Bench: "reduce", Detector: DetSharedGlobal, GPU: testGPU(),
		FaultSeed: 99, Degradation: "reinit",
	}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.Cycles != cfgd.Stats.Cycles {
		t.Errorf("cycles differ without a fault plan: %d vs %d", plain.Stats.Cycles, cfgd.Stats.Cycles)
	}
	if a, b := raceFingerprint(plain.Races), raceFingerprint(cfgd.Races); a != b {
		t.Errorf("races differ without a fault plan:\n%s\nvs\n%s", a, b)
	}
	if cfgd.Health.Degraded {
		t.Errorf("degraded without a fault plan: %s", cfgd.Health)
	}
}

// TestReinitPolicy runs the stuck-cell plan under both degradation
// policies; both must flag Degraded via their respective counters.
func TestReinitPolicy(t *testing.T) {
	for _, pol := range []string{"quarantine", "reinit"} {
		res, err := ExecContext(context.Background(), RunConfig{
			Bench: "scan", Detector: DetSharedGlobal, GPU: testGPU(), SingleBlock: true,
			FaultPlan: "stuck:perki=32,ecc", FaultSeed: 7, Degradation: pol,
		}, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		h := res.Health
		if !h.Degraded {
			t.Errorf("%s: stuck cells at 32/Ki not degraded: %s", pol, h)
			continue
		}
		switch pol {
		case "quarantine":
			if h.QuarantinedGranules == 0 {
				t.Errorf("quarantine policy quarantined nothing: %s", h)
			}
		case "reinit":
			if h.ReinitGranules == 0 {
				t.Errorf("reinit policy reinitialized nothing: %s", h)
			}
		}
	}
	if _, err := ExecContext(context.Background(), RunConfig{
		Bench: "scan", Detector: DetSharedGlobal, GPU: testGPU(),
		Degradation: "explode",
	}, ExecOptions{}); err == nil {
		t.Error("bogus degradation policy accepted")
	}
}

// TestMaxCyclesGuardRail: an exhausted cycle budget surfaces as a
// structured HangError with the partial result still attached.
func TestMaxCyclesGuardRail(t *testing.T) {
	res, err := ExecContext(context.Background(), RunConfig{
		Bench: "hash", Detector: DetSharedGlobal, GPU: testGPU(), MaxCycles: 50,
	}, ExecOptions{})
	if err == nil {
		t.Fatal("50-cycle budget did not abort the run")
	}
	var hang *gpu.HangError
	if !errors.As(err, &hang) {
		t.Fatalf("error %T is not *gpu.HangError: %v", err, err)
	}
	if hang.Reason != gpu.HangCycleBudget {
		t.Errorf("reason = %q, want %q", hang.Reason, gpu.HangCycleBudget)
	}
	if res == nil || res.Stats == nil {
		t.Fatal("no partial result alongside the guard-rail error")
	}
	if res.Stats.Cycles <= 0 {
		t.Errorf("partial stats have no cycles: %+v", res.Stats)
	}
	// A generous budget must not trip.
	if _, err := ExecContext(context.Background(), RunConfig{
		Bench: "hash", Detector: DetSharedGlobal, GPU: testGPU(), MaxCycles: 1 << 40,
	}, ExecOptions{}); err != nil {
		t.Errorf("generous budget aborted: %v", err)
	}
}

func TestFaultStudyRenders(t *testing.T) {
	rows, txt, err := Sweep{}.FaultStudy(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(faultStudyBenches)*len(FaultStudyPlans) {
		t.Errorf("rows = %d, want %d", len(rows), len(faultStudyBenches)*len(FaultStudyPlans))
	}
	for _, want := range []string{"bench", "queue-overflow", "bloom-saturation", "DEGRADED"} {
		if !strings.Contains(txt, want) {
			t.Errorf("fault study output missing %q:\n%s", want, txt)
		}
	}
	var buf bytes.Buffer
	if err := WriteFaultStudyCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "benchmark,") || !strings.Contains(buf.String(), "degraded") {
		t.Errorf("fault study CSV header malformed:\n%s", buf.String())
	}
}

func TestHealthCSV(t *testing.T) {
	res, err := ExecContext(context.Background(), RunConfig{
		Bench: "scan", Detector: DetSharedGlobal, GPU: testGPU(), SingleBlock: true,
		FaultPlan: "flip:rate=2e-4", FaultSeed: 5,
	}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHealthCSV(&buf, []*RunResult{res}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("health CSV has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	header := strings.Split(lines[0], ",")
	row := strings.Split(lines[1], ",")
	if len(header) != len(row) {
		t.Errorf("header has %d columns, row has %d", len(header), len(row))
	}
	for _, col := range []string{"fault_plan", "injected_flips", "degraded", "bloom_fill_pct"} {
		if !strings.Contains(lines[0], col) {
			t.Errorf("health CSV header missing %q: %s", col, lines[0])
		}
	}
}
