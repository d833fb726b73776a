package harness

import (
	"context"
	"encoding/json"
	"testing"

	"haccrg/internal/kernels"
)

// filterFingerprint renders a run's findings and timing for byte-exact
// comparison between filter-on and filter-off runs. Unlike the fault
// suite's raceFingerprint, cycles and shadow traffic are included: the
// filter must not perturb timing at all.
func filterFingerprint(t *testing.T, r *RunResult) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Races       interface{}
		Cycles      int64
		SharedSites int
		GlobalSites int
		ShadowR     int64
		ShadowW     int64
	}{r.Races, r.Stats.Cycles, r.SharedSites, r.GlobalSites,
		r.DetectorStats.ShadowReads, r.DetectorStats.ShadowWrites})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStaticFilterDifferential is the filter's correctness oracle:
// for every benchmark, both fault-free and under a fault plan, findings
// and cycle counts with the static filter on must be byte-identical to
// filter off.
func TestStaticFilterDifferential(t *testing.T) {
	plans := []string{"", "queue:cap=16,drain=1"}
	for _, bm := range kernels.All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			for _, fp := range plans {
				base := RunConfig{
					Bench: bm.Name, Detector: DetSharedGlobal,
					GPU: testGPU(), FaultPlan: fp, FaultSeed: 7,
					MaxCycles: 40_000_000,
				}
				off, err := ExecContext(context.Background(), base, ExecOptions{})
				if err != nil {
					t.Fatalf("plan=%q off: %v", fp, err)
				}
				on := base
				on.StaticFilter = true
				res, err := ExecContext(context.Background(), on, ExecOptions{})
				if err != nil {
					t.Fatalf("plan=%q on: %v", fp, err)
				}
				if got, want := filterFingerprint(t, res), filterFingerprint(t, off); got != want {
					t.Errorf("plan=%q: findings diverged\n on: %s\noff: %s", fp, got, want)
				}
				if fp != "" && res.DetectorStats.FilteredChecks != 0 {
					t.Errorf("plan=%q: filter engaged under a fault plan (%d skips)",
						fp, res.DetectorStats.FilteredChecks)
				}
			}
		})
	}
}

// TestStaticFilterSavesWork pins the acceptance criterion: at least
// two benchmarks must show a non-zero FilteredChecks count — real
// shadow-check work the prover removed.
func TestStaticFilterSavesWork(t *testing.T) {
	saved := 0
	for _, bm := range kernels.All() {
		res, err := ExecContext(context.Background(), RunConfig{
			Bench: bm.Name, Detector: DetSharedGlobal,
			GPU: testGPU(), StaticFilter: true, MaxCycles: 40_000_000,
		}, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		if res.DetectorStats.FilteredChecks > 0 {
			saved++
			t.Logf("%-8s filtered %d checks (%d shared / %d global remained)",
				bm.Name, res.DetectorStats.FilteredChecks,
				res.DetectorStats.SharedChecks, res.DetectorStats.GlobalChecks)
		}
	}
	if saved < 2 {
		t.Fatalf("filter saved work on %d benchmarks, want >= 2", saved)
	}
}

// TestStaticFilterRejectsSoftwareKinds: the filter contract is defined
// against the hardware RDU engines only.
func TestStaticFilterRejectsSoftwareKinds(t *testing.T) {
	for _, k := range []DetectorKind{DetOff, DetSoftware, DetGRace} {
		_, err := ExecContext(context.Background(), RunConfig{
			Bench: "scan", Detector: k, GPU: testGPU(),
			SingleBlock: true, StaticFilter: true,
		}, ExecOptions{})
		if err == nil {
			t.Errorf("detector %s accepted the static filter", k)
		}
	}
}
