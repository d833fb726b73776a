package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"haccrg/internal/gpu"
)

// FaultStudyPlans are the canned fault plans the robustness study
// sweeps: one per fault class the injector models, plus an ECC
// variant showing the scrub converting silent corruption into
// counted degradation.
var FaultStudyPlans = []struct {
	Label string
	Plan  string
}{
	{"queue-overflow", "queue:cap=8,drain=1"},
	{"bit-flips", "flip:rate=2e-4"},
	{"bit-flips+ecc", "flip:rate=2e-4,ecc"},
	{"stuck-cells", "stuck:perki=8"},
	{"stuck-cells+ecc", "stuck:perki=8,ecc"},
	{"bloom-saturation", "bloom:fill=0.9"},
	{"fetch-spikes", "spike:extra=500,period=32"},
}

// faultStudyBenches are the workloads the study runs: SCAN (a real
// cross-block race to preserve or lose), REDUCE (barrier-heavy shared
// traffic) and HASH (atomics exercising the lockset/Bloom path).
var faultStudyBenches = []string{"scan", "reduce", "hash"}

// FaultStudyRow is one (benchmark, plan) outcome.
type FaultStudyRow struct {
	Bench     string
	Label     string
	Plan      string
	BaseRaces int // distinct races with no faults
	Races     int // distinct races under the plan
	Result    *RunResult
}

// FaultStudy measures graceful degradation: every benchmark runs
// fault-free for a baseline, then once per fault plan at the given
// seed. The invariant on display — and the one the property test
// enforces — is that a run whose findings diverge from baseline always
// reports Degraded health, never a silent divergence.
func (s Sweep) FaultStudy(scale int, seed int64) ([]FaultStudyRow, string, error) {
	stride := 1 + len(FaultStudyPlans) // baseline + one run per plan
	cfgs := make([]RunConfig, 0, len(faultStudyBenches)*stride)
	for _, bench := range faultStudyBenches {
		cfgs = append(cfgs, RunConfig{Bench: bench, Detector: DetSharedGlobal, Scale: scale})
		for _, fp := range FaultStudyPlans {
			cfgs = append(cfgs, RunConfig{
				Bench: bench, Detector: DetSharedGlobal, Scale: scale,
				FaultPlan: fp.Plan, FaultSeed: seed,
			})
		}
	}
	results, err := s.Run(cfgs)
	if err != nil {
		return nil, "", err
	}
	var rows []FaultStudyRow
	var txt [][]string
	for i, bench := range faultStudyBenches {
		base := results[i*stride]
		for j, fp := range FaultStudyPlans {
			r := results[i*stride+1+j]
			row := FaultStudyRow{
				Bench: bench, Label: fp.Label, Plan: fp.Plan,
				BaseRaces: len(base.Races), Races: len(r.Races), Result: r,
			}
			rows = append(rows, row)
			degraded := "ok"
			if r.Health != nil && r.Health.Degraded {
				degraded = "DEGRADED"
			}
			txt = append(txt, []string{
				bench, fp.Label,
				fmt.Sprintf("%d -> %d", row.BaseRaces, row.Races),
				degraded,
				fmt.Sprintf("%.2f%%", r.Health.EstFalseNegPct()),
				fmt.Sprintf("%.1f%%", r.Health.BloomFillPct),
			})
		}
	}
	return rows, table([]string{"benchmark", "fault plan", "races", "health", "est false-neg", "bloom fill"}, txt), nil
}

// WriteHealthCSV exports per-run detector-health columns, one row per
// RunResult (the CSV side of the DetectorHealth report).
func WriteHealthCSV(w io.Writer, rows []*RunResult) error {
	cw := csv.NewWriter(w)
	head := []string{
		"benchmark", "detector", "fault_plan", "fault_seed", "degradation",
		"cycles", "blocks_retired", "races",
		"dropped_checks", "injected_flips", "corrected_flips", "stuck_reads",
		"quarantined_granules", "quarantine_skips", "reinit_granules",
		"saturated_sigs", "latency_spikes", "total_checks",
		"bloom_fill_pct", "est_false_neg_pct", "degraded",
	}
	if err := cw.Write(head); err != nil {
		return err
	}
	for _, r := range rows {
		if r == nil {
			continue
		}
		h := r.Health
		if h == nil {
			h = &gpu.DetectorHealth{}
		}
		deg := r.Config.Degradation
		if deg == "" {
			deg = "quarantine"
		}
		rec := []string{
			r.Config.Bench, string(r.Config.Detector),
			r.Config.FaultPlan, strconv.FormatInt(r.Config.FaultSeed, 10), deg,
			strconv.FormatInt(r.Stats.Cycles, 10),
			strconv.FormatInt(r.Stats.BlocksRetired, 10),
			strconv.Itoa(len(r.Races)),
			strconv.FormatInt(h.DroppedChecks, 10),
			strconv.FormatInt(h.InjectedFlips, 10),
			strconv.FormatInt(h.CorrectedFlips, 10),
			strconv.FormatInt(h.StuckReads, 10),
			strconv.FormatInt(h.QuarantinedGranules, 10),
			strconv.FormatInt(h.QuarantineSkips, 10),
			strconv.FormatInt(h.ReinitGranules, 10),
			strconv.FormatInt(h.SaturatedSigs, 10),
			strconv.FormatInt(h.LatencySpikes, 10),
			strconv.FormatInt(h.TotalChecks, 10),
			strconv.FormatFloat(h.BloomFillPct, 'f', 3, 64),
			strconv.FormatFloat(h.EstFalseNegPct(), 'f', 3, 64),
			strconv.FormatBool(h.Degraded),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFaultStudyCSV exports the fault-study rows with their health
// columns.
func WriteFaultStudyCSV(w io.Writer, rows []FaultStudyRow) error {
	results := make([]*RunResult, len(rows))
	for i := range rows {
		results[i] = rows[i].Result
	}
	return WriteHealthCSV(w, results)
}
