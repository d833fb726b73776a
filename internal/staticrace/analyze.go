// Package staticrace is a static analyzer for isa.Program kernels: a
// CFG + abstract-interpretation framework with an affine symbolic
// domain over {tid, bid, lane, warp, params, constants}, used for
//
//   - lint passes (barrier divergence, uninitialized reads, provable
//     shared-memory OOB, fence misuse around election atomics);
//   - a race-freedom prover that classifies each LD/ST/ATOM site per
//     memory space;
//   - the RDU static filter (core.Detector.SetStaticFilter) that lets the
//     dynamic detector skip shadow work for proven-race-free sites.
package staticrace

import (
	"fmt"
	"sort"

	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// Config carries the launch- and detector-side constants the analysis
// needs. Granularities must match the dynamic detector's options for
// the filter classifications to be sound.
type Config struct {
	WarpSize           int
	SharedGranularity  int
	GlobalGranularity  int
	MaxFootprintPoints int64 // 0 = default (1<<22)

	// WarpAware mirrors core.Options.WarpAware: when set, the dynamic
	// detector treats same-warp conflicts as benign lockstep sharing,
	// and the prover may discharge conflicts confined to one warp.
	WarpAware bool

	// Replay budgets for the concrete witness engine; zero selects the
	// defaults (1<<23 total steps, 8192 threads).
	MaxReplaySteps   int64
	MaxReplayThreads int
}

// withDefaults fills the zero fields of c with their defaults.
func (c Config) withDefaults() Config {
	if c.WarpSize <= 0 {
		c.WarpSize = 32
	}
	if c.SharedGranularity <= 0 {
		c.SharedGranularity = 4
	}
	if c.GlobalGranularity <= 0 {
		c.GlobalGranularity = 4
	}
	if c.MaxFootprintPoints <= 0 {
		c.MaxFootprintPoints = 1 << 22
	}
	if c.MaxReplaySteps <= 0 {
		c.MaxReplaySteps = replayTotalSteps
	}
	if c.MaxReplayThreads <= 0 {
		c.MaxReplayThreads = replayMaxThreads
	}
	return c
}

// Finding is one lint diagnostic, addressed by PC.
type Finding struct {
	Pass     string `json:"pass"`
	Kernel   string `json:"kernel"`
	PC       int    `json:"pc"`
	Msg      string `json:"msg"`
	Severity string `json:"severity"`          // "warn", or "error" when witnessed
	Related  []int  `json:"related,omitempty"` // other PCs involved
}

// SiteInfo is the prover's verdict for one memory site.
type SiteInfo struct {
	PC       int       `json:"pc"`
	Space    string    `json:"space"`
	Op       string    `json:"op"`
	Class    SiteClass `json:"-"`
	ClassStr string    `json:"class"`
	Granules int       `json:"granules"`
	Dead     bool      `json:"dead,omitempty"`
}

// Analysis is the result of analyzing one launched kernel.
type Analysis struct {
	Kernel     string
	CFG        *CFG
	Findings   []Finding
	Sites      []*SiteInfo // sorted by PC
	Filterable []bool      // pc-indexed; true = detector may skip checks

	// Presence proofs: every entry passed the independent checker.
	Witnesses []Witness
	// Conflicts counts sites whose race-free proof coexisted with a
	// verified witness; the proof is dropped (sound direction) and the
	// conflict recorded — a healthy analyzer reports zero.
	Conflicts int
	// WitnessDropped counts witnesses the checker rejected or the
	// per-kernel cap discarded.
	WitnessDropped int
}

// Analyze runs the full static analysis for one launched kernel: CFG
// construction, the abstract-interpretation fixpoint, the lint passes
// and the race-freedom prover.
func Analyze(k *gpu.Kernel, conf Config) (*Analysis, error) {
	if k == nil || k.Prog == nil {
		return nil, fmt.Errorf("staticrace: nil kernel")
	}
	if err := k.Prog.Validate(); err != nil {
		return nil, err
	}
	conf = conf.withDefaults()
	cfg, err := BuildCFG(k.Prog)
	if err != nil {
		return nil, err
	}
	a := newAnalyzer(k, cfg, conf)
	a.run()

	res := &Analysis{
		Kernel:     k.Name,
		CFG:        cfg,
		Filterable: make([]bool, len(k.Prog.Code)),
	}

	// Prover: per-space classification of every live site, indexed by
	// pc in infos and listed in pc order in res.Sites.
	infos := make([]*SiteInfo, len(k.Prog.Code))
	for pc, s := range a.sites {
		if s == nil {
			continue
		}
		info := &SiteInfo{
			PC:    pc,
			Space: s.space.String(),
			Op:    k.Prog.Code[pc].Op.String(),
			Dead:  s.dead,
		}
		if s.dead {
			// Provably never executed: trivially race-free.
			info.Class = ClassPrivate
		}
		infos[pc] = info
		res.Sites = append(res.Sites, info)
	}
	a.proveSpace(isa.SpaceShared, conf.SharedGranularity, infos)
	a.proveSpace(isa.SpaceGlobal, conf.GlobalGranularity, infos)

	// Lints.
	res.Findings = append(res.Findings, a.lintBarrierDivergence()...)
	res.Findings = append(res.Findings, a.lintUninit()...)
	res.Findings = append(res.Findings, a.lintSharedOOB()...)
	res.Findings = append(res.Findings, a.lintFenceMisuse()...)

	// Concrete replay: quiet-granule refinement plus the witness
	// engine. Everything downstream re-checks its own claims.
	a.witnessPhase(res, infos)

	for _, info := range res.Sites {
		info.ClassStr = info.Class.String()
		if info.Class.filterable() {
			res.Filterable[info.PC] = true
		}
	}
	for i := range res.Findings {
		res.Findings[i].Kernel = k.Name
		if res.Findings[i].Severity == "" {
			res.Findings[i].Severity = "warn"
		}
	}
	sort.SliceStable(res.Findings, func(i, j int) bool {
		if res.Findings[i].PC != res.Findings[j].PC {
			return res.Findings[i].PC < res.Findings[j].PC
		}
		return res.Findings[i].Pass < res.Findings[j].Pass
	})
	return res, nil
}

// witnessPhase runs the concrete replay and everything derived from
// it: the quiet-granule upgrade of unknown sites, the three classes of
// guaranteed race witnesses, the lint-tied divergence/oob/fence
// witnesses, the independent checker pass, and the proof/witness
// consistency sweep. Witness emission order is deterministic: granule
// tables walk their keys in ascending order, each granule's accesses in
// (block, tid, pc, addr) order.
func (a *analyzer) witnessPhase(res *Analysis, infos []*SiteInfo) {
	rr := a.replayKernel()
	var pending []Witness

	if rr != nil && rr.complete && !rr.acqMark {
		// Per-pc verdicts over the replayed footprints: with a complete
		// replay these are exact, so "every touched granule is quiet"
		// upgrades an unknown site, and "some touched granule is
		// witnessed racy" pins the site to the hot path.
		notQuiet := make([]bool, len(a.prog.Code))
		racy := make([]bool, len(a.prog.Code))
		var sc ruleScratch
		for _, sp := range [2]struct {
			space isa.Space
			gran  int
		}{{isa.SpaceShared, a.conf.SharedGranularity}, {isa.SpaceGlobal, a.conf.GlobalGranularity}} {
			clear(notQuiet)
			clear(racy)
			t := a.granuleTable(rr, sp.space, sp.gran)
			for lo := 0; lo < len(t); {
				hi := keyRun(t, lo)
				accs := sc.group(rr, t[lo:hi])
				quiet := sc.quietGranule(accs, sp.space, rr.blockBars, a.conf.WarpAware, a.conf.WarpSize)
				w := sc.raceWitness(a.k.Name, sp.space, t[lo].key, accs, rr.blockBars, a.conf.WarpSize, sp.gran)
				if w != nil {
					pending = append(pending, *w)
				}
				for _, ac := range accs {
					if !quiet {
						notQuiet[ac.pc] = true
					}
					if w != nil {
						racy[ac.pc] = true
					}
				}
				lo = hi
			}
			for _, s := range a.sites {
				if s == nil || s.space != sp.space || s.dead {
					continue
				}
				info := infos[s.pc]
				if racy[s.pc] {
					if info.Class.filterable() {
						res.Conflicts++
					}
					info.Class = ClassRacy
					continue
				}
				if info.Class == ClassUnknown && !notQuiet[s.pc] {
					info.Class = ClassQuiet
				}
			}
		}
	}

	if rr != nil {
		pending = append(pending, a.divergenceWitnesses(rr, res.Findings)...)
		pending = append(pending, a.oobWitnesses(rr)...)
	}
	pending = append(pending, a.fenceWitnesses(res.Findings, a.conf.GlobalGranularity)...)

	// Checker pass: nothing ships unverified.
	for i := range pending {
		w := &pending[i]
		if len(res.Witnesses) >= witnessCap {
			res.WitnessDropped++
			continue
		}
		ok := false
		switch w.Kind {
		case WitnessRace:
			ok = a.verifyRaceWitness(w, spaceOf(w.Space), a.granOf(w.Space))
		case WitnessDivergence:
			ok = a.verifyDivergenceWitness(w)
		case WitnessOOB:
			ok = a.verifyOOBWitness(w)
		case WitnessFence:
			ok = a.verifyFenceWitness(w, a.conf.GlobalGranularity)
		}
		if !ok {
			res.WitnessDropped++
			continue
		}
		w.Verified = true
		res.Witnesses = append(res.Witnesses, *w)
	}

	// Witnessed lint findings graduate from advisory to error.
	for i := range res.Findings {
		f := &res.Findings[i]
		for _, w := range res.Witnesses {
			if w.PC != f.PC {
				continue
			}
			switch {
			case w.Kind == WitnessDivergence && f.Pass == PassBarrierDivergence,
				w.Kind == WitnessOOB && f.Pass == PassSharedOOB,
				w.Kind == WitnessFence && f.Pass == PassFenceMisuse:
				f.Severity = "error"
			}
		}
	}
}

func spaceOf(s string) isa.Space {
	if s == isa.SpaceShared.String() {
		return isa.SpaceShared
	}
	return isa.SpaceGlobal
}

func (a *analyzer) granOf(space string) int {
	if space == isa.SpaceShared.String() {
		return a.conf.SharedGranularity
	}
	return a.conf.GlobalGranularity
}
