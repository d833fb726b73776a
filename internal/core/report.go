package core

import (
	"encoding/json"
	"io"

	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// Report is the machine-readable summary of a detection run, suitable
// for CI integration or downstream tooling.
type Report struct {
	Detector string       `json:"detector"`
	Options  ReportOpts   `json:"options"`
	Summary  ReportTotals `json:"summary"`
	// Health is the degradation report; present only when the run was
	// degraded (dropped checks, injected faults, quarantines), so
	// fault-free reports stay byte-identical to earlier versions.
	Health *gpu.DetectorHealth `json:"health,omitempty"`
	Races  []ReportRace        `json:"races"`
}

// ReportOpts records the detection configuration of the run.
type ReportOpts struct {
	Shared            bool `json:"shared"`
	Global            bool `json:"global"`
	SharedGranularity int  `json:"shared_granularity"`
	GlobalGranularity int  `json:"global_granularity"`
	WarpAware         bool `json:"warp_aware"`
	BloomBits         int  `json:"bloom_bits"`
	BloomBins         int  `json:"bloom_bins"`
}

// ReportTotals aggregates counts.
type ReportTotals struct {
	Distinct       int              `json:"distinct_races"`
	DynamicReports int64            `json:"dynamic_reports"`
	SharedSites    int              `json:"shared_sites"`
	GlobalSites    int              `json:"global_sites"`
	ByKind         map[string]int   `json:"by_kind"`
	ByCategory     map[string]int   `json:"by_category"`
	Checks         map[string]int64 `json:"checks"`
}

// ReportRace is one distinct race in serializable form.
type ReportRace struct {
	Kernel      string `json:"kernel"`
	Space       string `json:"space"`
	Kind        string `json:"kind"`
	Category    string `json:"category"`
	PC          int    `json:"pc"`
	Stmt        string `json:"stmt,omitempty"`
	Address     uint64 `json:"address"`
	Granule     uint64 `json:"granule"`
	FirstTid    int    `json:"first_tid"`
	FirstBlock  int    `json:"first_block"`
	SecondTid   int    `json:"second_tid"`
	SecondBlock int    `json:"second_block"`
	Count       int64  `json:"count"`
	// Provenance is "StaticWitness" for quarantine pre-seeded reports;
	// omitted for ordinary state-machine reports, so unseeded runs stay
	// byte-identical to earlier report versions.
	Provenance string `json:"provenance,omitempty"`
}

// Report builds the machine-readable summary of everything detected
// so far.
func (d *Detector) Report() *Report {
	st := d.Stats()
	rep := &Report{
		Detector: d.Name(),
		Options: ReportOpts{
			Shared:            d.opt.Shared,
			Global:            d.opt.Global,
			SharedGranularity: d.opt.SharedGranularity,
			GlobalGranularity: d.opt.GlobalGranularity,
			WarpAware:         d.opt.WarpAware,
			BloomBits:         d.bloom.SizeBits,
			BloomBins:         d.bloom.Bins,
		},
		Summary: ReportTotals{
			Distinct:       len(d.races),
			DynamicReports: st.Reports,
			SharedSites:    d.SiteCount(isa.SpaceShared),
			GlobalSites:    d.SiteCount(isa.SpaceGlobal),
			ByKind:         map[string]int{},
			ByCategory:     map[string]int{},
			Checks: map[string]int64{
				"shared": st.SharedChecks,
				"global": st.GlobalChecks,
			},
		},
	}
	if st.FilteredChecks > 0 {
		// Only present when the static filter actually skipped work, so
		// filter-off reports stay byte-identical to earlier versions.
		rep.Summary.Checks["filtered"] = st.FilteredChecks
	}
	if h := d.Health(); h.Degraded {
		rep.Health = h
	}
	sorted := d.SortedRaces()
	if len(sorted) > 0 {
		// Left nil with no races: the report encodes "races": null.
		rep.Races = make([]ReportRace, 0, len(sorted))
	}
	for _, r := range sorted {
		rep.Summary.ByKind[r.Kind.String()]++
		rep.Summary.ByCategory[r.Category.String()]++
		rep.Races = append(rep.Races, ReportRace{
			Kernel:      r.Kernel,
			Space:       r.Space.String(),
			Kind:        r.Kind.String(),
			Category:    r.Category.String(),
			PC:          r.PC,
			Stmt:        r.Stmt,
			Address:     r.Addr,
			Granule:     r.Granule,
			FirstTid:    r.FirstTid,
			FirstBlock:  r.FirstBlock,
			SecondTid:   r.SecondTid,
			SecondBlock: r.SecondBlock,
			Count:       r.Count,
			Provenance:  r.Provenance,
		})
	}
	return rep
}

// WriteJSON serializes the report with indentation.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
