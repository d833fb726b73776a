package harness

import (
	"fmt"

	"haccrg/internal/bloom"
	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// WarpRegroupStudy contrasts warp-aware race reporting (the default)
// with the re-grouping mode of Section III-A, where threads that
// originally belonged to different warps may share one, so HAccRG
// must report races regardless of warp membership. The probe kernel
// makes lanes of one warp write the same shadow granule: warp-aware
// detection stays silent, re-grouping mode reports.
func WarpRegroupStudy() (awareRaces, regroupRaces int, text string, err error) {
	probe := func(warpAware bool) (int, error) {
		opt := core.DefaultOptions()
		opt.Global = false
		opt.DetectStaleL1 = false
		opt.SharedGranularity = 64
		opt.WarpAware = warpAware
		det, err := core.New(opt)
		if err != nil {
			return 0, err
		}
		dev, err := gpu.NewDevice(gpu.TestConfig(), 1<<16, det)
		if err != nil {
			return 0, err
		}
		b := isa.NewBuilder("regroup-probe")
		b.Sreg(1, isa.SregTid)
		b.Muli(2, 1, 4)
		b.St(isa.SpaceShared, 2, 0, 1, 4) // one warp, adjacent words, shared granules at 64B
		b.Exit()
		k := &gpu.Kernel{Name: "regroup-probe", Prog: b.MustBuild(),
			GridDim: 1, BlockDim: 32, SharedBytes: 256}
		if _, err := dev.Launch(k); err != nil {
			return 0, err
		}
		return len(det.Races()), nil
	}
	awareRaces, err = probe(true)
	if err != nil {
		return
	}
	regroupRaces, err = probe(false)
	if err != nil {
		return
	}
	text = fmt.Sprintf(
		"warp-aware (default): %d races reported\nre-grouping mode:     %d races reported\n"+
			"Intra-warp lockstep accesses to one coarse granule are implicitly\n"+
			"ordered, so warp-aware reporting suppresses them; with dynamic warp\n"+
			"re-grouping that guarantee disappears and HAccRG reports them all.\n",
		awareRaces, regroupRaces)
	return
}

// BloomEndToEnd measures, in full simulation rather than analytically,
// how signature size changes lockset detection: many threads update
// one word under *distinct* locks (every pair is a race); small
// signatures alias distinct locks and miss a fraction close to the
// configured layout's alias probability.
func BloomEndToEnd() (string, error) {
	run := func(cfg bloom.Config) (detected int, pairs int, err error) {
		opt := core.DefaultOptions()
		opt.Shared = false
		opt.DetectStaleL1 = false
		opt.Bloom = cfg
		det, err := core.New(opt)
		if err != nil {
			return 0, 0, err
		}
		gcfg := gpu.TestConfig()
		gcfg.Bloom = cfg
		dev, err := gpu.NewDevice(gcfg, 1<<20, det)
		if err != nil {
			return 0, 0, err
		}
		const threads = 64                      // one per block: every pair uses different locks
		locks, err := dev.Malloc(threads * 256) // spread lock addresses
		if err != nil {
			return 0, 0, err
		}
		data, err := dev.Malloc(4)
		if err != nil {
			return 0, 0, err
		}
		b := isa.NewBuilder("bloom-e2e")
		b.Sreg(1, isa.SregCtaid)
		b.Ldp(2, 0) // locks
		b.Ldp(3, 1) // data
		// lock address = locks + ((bid*37) % 256)*4: distinct per block
		// with pseudo-uniform low-order word bits, so signature
		// aliasing follows the layout's analytical rate instead of a
		// stride artifact.
		b.Muli(4, 1, 37)
		b.Remi(4, 4, 256)
		b.Muli(4, 4, 4)
		b.Add(4, 2, 4)
		// Acquire own lock (uncontended: CAS succeeds immediately).
		b.Movi(5, 0)
		b.Movi(6, 1)
		b.Atom(7, isa.AtomCAS, isa.SpaceGlobal, 4, 0, 5, 6)
		b.AcqMark(4)
		b.Ld(8, isa.SpaceGlobal, 3, 0, 4)
		b.Addi(8, 8, 1)
		b.St(isa.SpaceGlobal, 3, 0, 8, 4)
		b.Membar()
		b.RelMark()
		b.Movi(5, 0)
		b.Atom(7, isa.AtomExch, isa.SpaceGlobal, 4, 0, 5, 0)
		b.Exit()
		k := &gpu.Kernel{Name: "bloom-e2e", Prog: b.MustBuild(),
			GridDim: threads, BlockDim: 1, Params: []uint64{locks, data}}
		if _, err := dev.Launch(k); err != nil {
			return 0, 0, err
		}
		// Each successive accessor races with the previous one unless
		// their signatures alias: threads-1 consecutive pairs.
		var reports int64
		reports = det.Stats().Reports
		return int(reports), threads - 1, nil
	}
	var rows [][]string
	prev := -1
	for _, cfg := range []bloom.Config{{SizeBits: 8, Bins: 2}, {SizeBits: 16, Bins: 2}, {SizeBits: 32, Bins: 2}} {
		detected, _, err := run(cfg)
		if err != nil {
			return "", err
		}
		note := ""
		if prev >= 0 && detected < prev {
			note = " (!)"
		}
		prev = detected
		rows = append(rows, []string{
			fmt.Sprintf("%d-bit / %d bins", cfg.SizeBits, cfg.Bins),
			fmt.Sprint(detected) + note,
			fmt.Sprintf("%.2f%%", 100*cfg.AliasProbability()),
		})
	}
	return table([]string{"signature", "dynamic lockset reports", "analytical alias rate"}, rows) +
		"\nLarger signatures distinguish more lock pairs, so detection counts\n" +
		"grow with signature size while the alias (miss) rate shrinks —\n" +
		"the Section VI-A2 trade-off, measured end-to-end in simulation.\n", nil
}

// SyncIDGatingStudy quantifies the paper's optimization of bumping a
// block's sync ID only when it touched global memory since its last
// barrier: without the gate, shared-memory-heavy kernels burn through
// the 8-bit counters far faster.
func (s Sweep) SyncIDGatingStudy(scale int) (string, error) {
	benches := []string{"scan", "sortnw", "fwalsh", "reduce"}
	bumpCfg := gpu.DefaultConfig()
	bumpCfg.AlwaysBumpSyncID = true
	cfgs := make([]RunConfig, 0, 2*len(benches))
	for _, bench := range benches {
		cfgs = append(cfgs,
			RunConfig{Bench: bench, Detector: DetSharedGlobal, Scale: scale},
			// ExecContext copies the shared config, so the pointer is safe
			// to reuse across concurrent runs.
			RunConfig{Bench: bench, Detector: DetSharedGlobal, Scale: scale, GPU: &bumpCfg})
	}
	results, err := s.Run(cfgs)
	if err != nil {
		return "", err
	}
	var rows [][]string
	for i, bench := range benches {
		gated, ungated := results[2*i], results[2*i+1]
		rows = append(rows, []string{bench,
			fmt.Sprint(gated.Stats.MaxSyncID),
			fmt.Sprint(ungated.Stats.MaxSyncID),
			fmt.Sprint(gated.Stats.Barriers)})
	}
	return table([]string{"benchmark", "max sync ID (gated)", "max sync ID (every barrier)", "barrier episodes"}, rows), nil
}

// SchedulerStudy compares round-robin warp scheduling (the paper's
// Table I configuration) against greedy-then-oldest across the suite:
// a simulator-credibility ablation showing the engine reacts to
// scheduling policy, with functional results unchanged.
func (s Sweep) SchedulerStudy(scale int) (string, error) {
	benches := []string{"mcarlo", "fwalsh", "hist", "sortnw", "reduce", "psum"}
	gtoCfg := gpu.DefaultConfig()
	gtoCfg.Scheduler = gpu.SchedGTO
	cfgs := make([]RunConfig, 0, 2*len(benches))
	for _, bench := range benches {
		cfgs = append(cfgs,
			RunConfig{Bench: bench, Detector: DetOff, Scale: scale},
			RunConfig{Bench: bench, Detector: DetOff, Scale: scale, GPU: &gtoCfg})
	}
	results, err := s.Run(cfgs)
	if err != nil {
		return "", err
	}
	var rows [][]string
	for i, bench := range benches {
		rr, gto := results[2*i], results[2*i+1]
		if rr.Stats.ThreadInstrs != gto.Stats.ThreadInstrs {
			return "", fmt.Errorf("harness: scheduler changed executed work on %s", bench)
		}
		rows = append(rows, []string{bench,
			fmt.Sprint(rr.Stats.Cycles),
			fmt.Sprint(gto.Stats.Cycles),
			fmt.Sprintf("%.3f", float64(gto.Stats.Cycles)/float64(rr.Stats.Cycles)),
			fmt.Sprintf("%.0f%% / %.0f%%",
				100*rr.Stats.IssueUtilization(), 100*gto.Stats.IssueUtilization()),
		})
	}
	return table([]string{"benchmark", "round-robin cycles", "gto cycles", "gto/rr", "issue util rr/gto"}, rows), nil
}
