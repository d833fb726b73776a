package staticrace

import (
	"sort"

	"haccrg/internal/gpu"
)

// Filter maps kernel names to pc-indexed "provably race-free" masks.
// It satisfies core.StaticFilter structurally (staticrace must not
// import core: core imports nothing above gpu/isa, and the filter is
// injected through the Options interface instead).
type Filter struct {
	sites    map[string][]bool
	analyses []*Analysis
}

// NewFilter analyzes every kernel of a plan and builds the detector
// filter. When the same kernel name is launched more than once (the
// filter is keyed by name, which is all the detector sees at
// KernelStart), the masks are AND-merged: a site stays filterable only
// if every launch proves it race-free.
func NewFilter(conf Config, kernels ...*gpu.Kernel) (*Filter, error) {
	f := &Filter{sites: map[string][]bool{}}
	for _, k := range kernels {
		res, err := Analyze(k, conf)
		if err != nil {
			return nil, err
		}
		f.analyses = append(f.analyses, res)
		if prev, ok := f.sites[k.Name]; ok {
			merged := make([]bool, len(prev))
			for pc := range merged {
				merged[pc] = prev[pc] && pc < len(res.Filterable) && res.Filterable[pc]
			}
			f.sites[k.Name] = merged
			continue
		}
		f.sites[k.Name] = append([]bool(nil), res.Filterable...)
	}
	return f, nil
}

// FilterSites implements core.StaticFilter: the pc-indexed skip mask
// for a kernel, or nil when the kernel was never analyzed.
func (f *Filter) FilterSites(kernel string) []bool {
	return f.sites[kernel]
}

// Analyses returns the per-launch analysis results, in plan order.
func (f *Filter) Analyses() []*Analysis { return f.analyses }

// FilteredPCs lists the PCs the detector will skip for a kernel.
func (f *Filter) FilteredPCs(kernel string) []int {
	var pcs []int
	for pc, ok := range f.sites[kernel] {
		if ok {
			pcs = append(pcs, pc)
		}
	}
	sort.Ints(pcs)
	return pcs
}

// FilterableSites counts filterable sites across all analyzed kernels.
func (f *Filter) FilterableSites() (filterable, total int) {
	for _, res := range f.analyses {
		for _, s := range res.Sites {
			total++
			if s.Class.filterable() {
				filterable++
			}
		}
	}
	return filterable, total
}

// RaceSeeds returns the verified global-space race witnesses for a
// kernel — the input to detector quarantine pre-seeding. The detector
// keys launches by name only, so when the same name was analyzed more
// than once, only witnesses whose granule is witnessed in every launch
// survive (seeding reports races, so the intersection is the sound
// direction).
func (f *Filter) RaceSeeds(kernel string) []Witness {
	var launches [][]Witness
	for _, res := range f.analyses {
		if res.Kernel != kernel {
			continue
		}
		var ws []Witness
		for _, w := range res.Witnesses {
			if w.Kind == WitnessRace && w.Verified && w.Space == "global" {
				ws = append(ws, w)
			}
		}
		launches = append(launches, ws)
	}
	if len(launches) == 0 {
		return nil
	}
	out := launches[0]
	for _, later := range launches[1:] {
		granules := map[uint64]bool{}
		for _, w := range later {
			granules[w.Granule] = true
		}
		kept := out[:0]
		for _, w := range out {
			if granules[w.Granule] {
				kept = append(kept, w)
			}
		}
		out = kept
	}
	return out
}
