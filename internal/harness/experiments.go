package harness

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"text/tabwriter"

	"haccrg/internal/bloom"
	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/kernels"
)

// table renders rows with aligned columns.
func table(header []string, rows [][]string) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	fmt.Fprintln(w, strings.Join(dashes(header), "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	return sb.String()
}

func dashes(hs []string) []string {
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = strings.Repeat("-", len(h))
	}
	return out
}

// Table1 renders the simulated GPU's hardware parameters (paper
// Table I).
func Table1(cfg gpu.Config) string {
	rows := [][]string{
		{"# SMs", fmt.Sprint(cfg.NumSMs)},
		{"SIMD pipeline width / warp size", fmt.Sprintf("%d / %d", cfg.SIMDWidth, cfg.WarpSize)},
		{"# threads / registers per SM", fmt.Sprintf("%d / %d", cfg.MaxThreadsPerSM, cfg.RegistersPerSM)},
		{"warp scheduling", "round robin"},
		{"shared memory per SM", fmt.Sprintf("%dKB, %d banks", cfg.Shared.SizeBytes>>10, cfg.Shared.Banks)},
		{"L1 data cache per SM", fmt.Sprintf("%dKB / %d-way / %dB line",
			cfg.L1.SizeBytes>>10, cfg.L1.Assoc, cfg.L1.LineBytes)},
		{"unified L2 cache", fmt.Sprintf("%dKB per memory slice / %d-way / %dB line",
			cfg.Partition.L2.SizeBytes>>10, cfg.Partition.L2.Assoc, cfg.Partition.L2.LineBytes)},
		{"# memory slices", fmt.Sprint(cfg.NumPartitions)},
		{"DRAM timing", fmt.Sprintf("CAS %d cycles, burst %d, %dB rows",
			cfg.Partition.DRAM.CASLatency, cfg.Partition.DRAM.BurstCycles, 1<<cfg.Partition.DRAM.RowBits)},
		{"interconnect", fmt.Sprintf("%dB flits, %d-cycle latency",
			cfg.NoC.FlitBytes, cfg.NoC.LatencyCycles)},
	}
	return table([]string{"parameter", "value"}, rows)
}

// Table2Row is one benchmark's characterization.
type Table2Row struct {
	Bench        string
	Input        string
	SharedReadPc float64
	GlobalReadPc float64
	Cycles       int64
}

// Table2 runs every benchmark with detection off and reports the
// instruction mix (paper Table II's shared/global read percentages).
func (s Sweep) Table2(scale int) ([]Table2Row, string, error) {
	bms := kernels.All()
	cfgs := make([]RunConfig, len(bms))
	for i, bm := range bms {
		cfgs[i] = RunConfig{Bench: bm.Name, Detector: DetOff, Scale: scale}
	}
	results, err := s.Run(cfgs)
	if err != nil {
		return nil, "", err
	}
	var rows []Table2Row
	var txt [][]string
	for i, bm := range bms {
		r := results[i]
		row := Table2Row{
			Bench: bm.Name, Input: bm.Input,
			SharedReadPc: r.Stats.SharedReadPct(),
			GlobalReadPc: r.Stats.GlobalReadPct(),
			Cycles:       r.Stats.Cycles,
		}
		rows = append(rows, row)
		txt = append(txt, []string{bm.Name, bm.Input,
			fmt.Sprintf("%.2f%%", row.SharedReadPc),
			fmt.Sprintf("%.2f%%", row.GlobalReadPc),
			fmt.Sprint(row.Cycles)})
	}
	return rows, table([]string{"benchmark", "inputs", "shared reads", "global reads", "cycles"}, txt), nil
}

// Table3Row gives a benchmark's false-race counts across tracking
// granularities for one memory space. Sites counts distinct racy
// granules; Reports counts dynamic race reports (which keep growing
// with granularity even as sites merge).
type Table3Row struct {
	Bench   string
	False   map[int]int // granularity bytes -> false race sites
	Reports map[int]int64
}

// Table3Granularities are the sweep points of paper Table III.
var Table3Granularities = []int{4, 8, 16, 32, 64}

// Table3 sweeps tracking granularity and counts false races: for the
// shared space every reported race is false (no benchmark has a real
// shared race); for the global space the 4-byte run is the truth
// baseline, as in the paper.
func (s Sweep) Table3(scale int) (shared, global []Table3Row, text string, err error) {
	bms := kernels.All()
	ng := len(Table3Granularities)
	cfgs := make([]RunConfig, 0, len(bms)*ng)
	for _, bm := range bms {
		for _, g := range Table3Granularities {
			cfgs = append(cfgs, RunConfig{
				Bench: bm.Name, Detector: DetSharedGlobal, Scale: scale,
				SharedGranularity: g, GlobalGranularity: g,
			})
		}
	}
	results, err := s.Run(cfgs)
	if err != nil {
		return nil, nil, "", err
	}
	var sharedTxt, globalTxt [][]string
	for i, bm := range bms {
		sr := Table3Row{Bench: bm.Name, False: map[int]int{}, Reports: map[int]int64{}}
		gr := Table3Row{Bench: bm.Name, False: map[int]int{}, Reports: map[int]int64{}}
		baselineGlobal := -1
		for j, g := range Table3Granularities {
			r := results[i*ng+j]
			sr.False[g] = r.SharedSites
			sr.Reports[g] = r.DetectorStats.SharedReports
			if baselineGlobal < 0 {
				baselineGlobal = r.GlobalSites
			}
			f := r.GlobalSites - baselineGlobal
			if f < 0 {
				f = 0
			}
			gr.False[g] = f
		}
		shared = append(shared, sr)
		global = append(global, gr)
		sharedTxt = append(sharedTxt, granRow(bm.Name, sr))
		globalTxt = append(globalTxt, granRow(bm.Name, gr))
	}
	head := []string{"benchmark"}
	for _, g := range Table3Granularities {
		head = append(head, fmt.Sprintf("%dB", g))
	}
	text = "False shared-memory races vs tracking granularity (sites / dynamic reports):\n" +
		table(head, sharedTxt) +
		"\nFalse global-memory races vs tracking granularity (4B = truth):\n" +
		table(head, globalTxt)
	return shared, global, text, nil
}

func granRow(name string, r Table3Row) []string {
	row := []string{name}
	for _, g := range Table3Granularities {
		if len(r.Reports) > 0 && r.Reports[g] > 0 {
			row = append(row, fmt.Sprintf("%d/%d", r.False[g], r.Reports[g]))
		} else {
			row = append(row, fmt.Sprint(r.False[g]))
		}
	}
	return row
}

// Table4 reports the global shadow-memory footprint per benchmark at
// 4-byte granularity (paper Table IV).
func Table4(scale int) (map[string]int64, string, error) {
	opt := core.DefaultOptions()
	out := map[string]int64{}
	var rows [][]string
	for _, bm := range kernels.All() {
		// AppBytes comes from building the plan (it depends on scale).
		rc := RunConfig{Bench: bm.Name, Scale: scale}
		if err := rc.Validate(); err != nil {
			return nil, "", err
		}
		_, plan, err := rc.build(gpu.TestConfig(), nil)
		if err != nil {
			return nil, "", err
		}
		bytes := core.GlobalShadowBytes(plan.AppBytes, opt)
		out[bm.Name] = bytes
		rows = append(rows, []string{bm.Name, fmtBytes(int64(plan.AppBytes)), fmtBytes(bytes)})
	}
	return out, table([]string{"benchmark", "app data", "shadow overhead"}, rows), nil
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// Fig7Row holds one benchmark's normalized execution times.
type Fig7Row struct {
	Bench        string
	BaseCycles   int64
	Shared       float64 // shared-only HAccRG, normalized
	SharedGlobal float64 // shared+global HAccRG
	Software     float64 // software HAccRG
	GRace        float64 // GRace-addr
}

// Fig7 measures the performance impact of every detector configuration
// (paper Figure 7 plus the Section VI-B software comparison).
func (s Sweep) Fig7(scale int) ([]Fig7Row, string, error) {
	bms := kernels.All()
	kinds := []DetectorKind{DetOff, DetShared, DetSharedGlobal, DetSoftware, DetGRace}
	cfgs := make([]RunConfig, 0, len(bms)*len(kinds))
	for _, bm := range bms {
		for _, kind := range kinds {
			cfgs = append(cfgs, RunConfig{Bench: bm.Name, Detector: kind, Scale: scale})
		}
	}
	results, err := s.Run(cfgs)
	if err != nil {
		return nil, "", err
	}
	var rows []Fig7Row
	var txt [][]string
	for i, bm := range bms {
		base := results[i*len(kinds)]
		row := Fig7Row{Bench: bm.Name, BaseCycles: base.Stats.Cycles}
		for j, dst := range []*float64{&row.Shared, &row.SharedGlobal, &row.Software, &row.GRace} {
			r := results[i*len(kinds)+1+j]
			*dst = float64(r.Stats.Cycles) / float64(base.Stats.Cycles)
		}
		rows = append(rows, row)
		txt = append(txt, []string{bm.Name,
			fmt.Sprintf("%.3f", row.Shared),
			fmt.Sprintf("%.3f", row.SharedGlobal),
			fmt.Sprintf("%.2fx", row.Software),
			fmt.Sprintf("%.1fx", row.GRace)})
	}
	gm := func(f func(Fig7Row) float64) float64 {
		p := 1.0
		for _, r := range rows {
			p *= f(r)
		}
		return math.Pow(p, 1/float64(len(rows)))
	}
	txt = append(txt, []string{"geomean",
		fmt.Sprintf("%.3f", gm(func(r Fig7Row) float64 { return r.Shared })),
		fmt.Sprintf("%.3f", gm(func(r Fig7Row) float64 { return r.SharedGlobal })),
		fmt.Sprintf("%.2fx", gm(func(r Fig7Row) float64 { return r.Software })),
		fmt.Sprintf("%.1fx", gm(func(r Fig7Row) float64 { return r.GRace }))})
	return rows, table([]string{"benchmark", "hw shared", "hw shared+global", "sw-haccrg", "grace-addr"}, txt), nil
}

// Fig8Row compares hardware shared shadow entries against
// shared-shadow-in-global-memory (paper Figure 8).
type Fig8Row struct {
	Bench    string
	Hardware float64 // shared+global, normalized to detection-off
	Software float64 // shared shadow in global memory
}

// Fig8 runs the shared-shadow placement experiment.
func (s Sweep) Fig8(scale int) ([]Fig8Row, string, error) {
	bms := kernels.All()
	kinds := []DetectorKind{DetOff, DetSharedGlobal, DetFig8}
	cfgs := make([]RunConfig, 0, len(bms)*len(kinds))
	for _, bm := range bms {
		for _, kind := range kinds {
			cfgs = append(cfgs, RunConfig{Bench: bm.Name, Detector: kind, Scale: scale})
		}
	}
	results, err := s.Run(cfgs)
	if err != nil {
		return nil, "", err
	}
	var rows []Fig8Row
	var txt [][]string
	for i, bm := range bms {
		base, hw, sw := results[i*3], results[i*3+1], results[i*3+2]
		row := Fig8Row{
			Bench:    bm.Name,
			Hardware: float64(hw.Stats.Cycles) / float64(base.Stats.Cycles),
			Software: float64(sw.Stats.Cycles) / float64(base.Stats.Cycles),
		}
		rows = append(rows, row)
		txt = append(txt, []string{bm.Name,
			fmt.Sprintf("%.3f", row.Hardware), fmt.Sprintf("%.3f", row.Software)})
	}
	return rows, table([]string{"benchmark", "hw shadow", "shadow in global mem"}, txt), nil
}

// Fig9Row holds DRAM bandwidth utilization per configuration.
type Fig9Row struct {
	Bench        string
	Off          float64
	Shared       float64
	SharedGlobal float64
}

// Fig9 measures average DRAM bandwidth utilization (paper Figure 9).
func (s Sweep) Fig9(scale int) ([]Fig9Row, string, error) {
	bms := kernels.All()
	kinds := []DetectorKind{DetOff, DetShared, DetSharedGlobal}
	cfgs := make([]RunConfig, 0, len(bms)*len(kinds))
	for _, bm := range bms {
		for _, kind := range kinds {
			cfgs = append(cfgs, RunConfig{Bench: bm.Name, Detector: kind, Scale: scale})
		}
	}
	results, err := s.Run(cfgs)
	if err != nil {
		return nil, "", err
	}
	var rows []Fig9Row
	var txt [][]string
	for i, bm := range bms {
		row := Fig9Row{Bench: bm.Name}
		for j, dst := range []*float64{&row.Off, &row.Shared, &row.SharedGlobal} {
			*dst = results[i*len(kinds)+j].Stats.DRAMUtil
		}
		rows = append(rows, row)
		txt = append(txt, []string{bm.Name,
			pct(row.Off), pct(row.Shared), pct(row.SharedGlobal)})
	}
	return rows, table([]string{"benchmark", "no detection", "shared", "shared+global"}, txt), nil
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// RealRaceReport summarizes the effectiveness study (Section VI-A).
type RealRaceReport struct {
	Bench       string
	SharedSites int
	GlobalSites int
	Categories  map[string]int
}

// RealRaces runs the effectiveness evaluation at word granularity.
func (s Sweep) RealRaces(scale int) ([]RealRaceReport, string, error) {
	bms := kernels.All()
	cfgs := make([]RunConfig, len(bms))
	for i, bm := range bms {
		cfgs[i] = RunConfig{
			Bench: bm.Name, Detector: DetSharedGlobal, Scale: scale,
			SharedGranularity: 4, GlobalGranularity: 4,
		}
	}
	results, err := s.Run(cfgs)
	if err != nil {
		return nil, "", err
	}
	var reps []RealRaceReport
	var txt [][]string
	for i, bm := range bms {
		r := results[i]
		rep := RealRaceReport{
			Bench: bm.Name, SharedSites: r.SharedSites,
			GlobalSites: r.GlobalSites, Categories: r.Groups,
		}
		reps = append(reps, rep)
		txt = append(txt, []string{bm.Name,
			fmt.Sprint(rep.SharedSites), fmt.Sprint(rep.GlobalSites), groupString(r.Groups)})
	}
	return reps, table([]string{"benchmark", "shared races", "global races", "groups"}, txt), nil
}

func groupString(groups map[string]int) string {
	if len(groups) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%d", k, groups[k])
	}
	return strings.Join(parts, " ")
}

// InjectedResult records one injection site's outcome.
type InjectedResult struct {
	Site     kernels.Site
	Detected bool
}

// Injected runs the 41-site injection study (Section VI-A). Sites are
// injected one at a time into otherwise race-free configurations.
func (s Sweep) Injected(scale int) ([]InjectedResult, string, error) {
	clean := func(name string) RunConfig {
		rc := RunConfig{
			Bench: name, Detector: DetSharedGlobal, Scale: scale,
			SharedGranularity: 4, GlobalGranularity: 4,
		}
		if name == "scan" || name == "kmeans" {
			rc.SingleBlock = true
		}
		return rc
	}
	// One combined sweep: the per-benchmark baselines first, then every
	// injection run — 10 + 41 configurations fanned out together.
	bms := kernels.All()
	cfgs := make([]RunConfig, 0, len(bms))
	for _, bm := range bms {
		cfgs = append(cfgs, clean(bm.Name))
	}
	type siteRef struct {
		bench string
		site  kernels.Site
	}
	var refs []siteRef
	for _, bm := range bms {
		for _, site := range bm.Sites {
			rc := clean(bm.Name)
			rc.Inject = []string{site.ID}
			cfgs = append(cfgs, rc)
			refs = append(refs, siteRef{bench: bm.Name, site: site})
		}
	}
	results, err := s.Run(cfgs)
	if err != nil {
		return nil, "", err
	}
	type base struct {
		sites  int
		groups map[string]int
	}
	baselines := map[string]base{}
	for i, bm := range bms {
		r := results[i]
		baselines[bm.Name] = base{sites: r.SharedSites + r.GlobalSites, groups: r.Groups}
	}
	var out []InjectedResult
	var txt [][]string
	detected := 0
	for k, ref := range refs {
		r := results[len(bms)+k]
		b := baselines[ref.bench]
		hit := r.SharedSites+r.GlobalSites > b.sites
		for g := range r.Groups {
			if b.groups[g] == 0 {
				hit = true
			}
		}
		if hit {
			detected++
		}
		out = append(out, InjectedResult{Site: ref.site, Detected: hit})
		mark := "MISSED"
		if hit {
			mark = "detected"
		}
		txt = append(txt, []string{ref.site.ID, ref.site.Kind.String(), mark})
	}
	summary := fmt.Sprintf("\n%d of %d injected races detected\n", detected, len(out))
	return out, table([]string{"site", "kind", "result"}, txt) + summary, nil
}

// BloomStress reproduces the Section VI-A2 signature stress test.
func BloomStress() string {
	var rows [][]string
	for _, size := range []int{8, 16, 32} {
		for _, bins := range []int{2, 4} {
			cfg := bloom.Config{SizeBits: size, Bins: bins}
			if cfg.Validate() != nil {
				continue
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d-bit / %d bins", size, bins),
				fmt.Sprintf("%.2f%%", 100*cfg.AliasProbability()),
			})
		}
	}
	return table([]string{"signature", "missed races"}, rows)
}

// IDUsage reports the observed logical-clock maxima (Section VI-A2's
// sync/fence-ID sizing argument).
func (s Sweep) IDUsage(scale int) (string, error) {
	bms := kernels.All()
	cfgs := make([]RunConfig, len(bms))
	for i, bm := range bms {
		cfgs[i] = RunConfig{Bench: bm.Name, Detector: DetSharedGlobal, Scale: scale}
	}
	results, err := s.Run(cfgs)
	if err != nil {
		return "", err
	}
	var rows [][]string
	for i, bm := range bms {
		r := results[i]
		rows = append(rows, []string{bm.Name,
			fmt.Sprint(r.Stats.MaxSyncID), fmt.Sprint(r.Stats.MaxFenceID)})
	}
	return table([]string{"benchmark", "max sync ID", "max fence ID"}, rows), nil
}

// HardwareCost renders the Section VI-C2 overhead arithmetic.
func HardwareCost() string {
	cfg := gpu.DefaultConfig()
	c := core.ComputeHardwareCost(&cfg, core.DefaultOptions())
	rows := [][]string{
		{"shared shadow entry", fmt.Sprintf("%d bits", c.SharedEntryBits)},
		{"shared shadow storage per SM", fmtBytes(int64(c.SharedShadowBytesPerSM))},
		{"shared comparators per SM", fmt.Sprint(c.SharedComparatorsPerSM)},
		{"global entry (base/fence/atomic)", fmt.Sprintf("%d/%d/%d bits",
			c.GlobalEntryBitsBase, c.GlobalEntryBitsFence, c.GlobalEntryBitsAtomic)},
		{"comparators per memory slice", fmt.Sprintf("%d base + %d ID", c.GlobalComparatorsPerSlice, c.IDComparatorsPerSlice)},
		{"ID storage per SM", fmtBytes(int64(c.IDBytesPerSM))},
		{"race register file per slice", fmtBytes(int64(c.RaceRegisterFileBytes))},
	}
	return table([]string{"resource", "cost"}, rows)
}
