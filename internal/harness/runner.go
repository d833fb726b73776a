// Package harness runs the paper's experiments: it sweeps benchmarks
// across detector configurations and regenerates every table and
// figure of the evaluation section (Tables I-IV, Figures 7-9, the
// effectiveness studies of Section VI-A, and the hardware-overhead
// arithmetic of Section VI-C).
package harness

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/grace"
	"haccrg/internal/isa"
	"haccrg/internal/journal"
	"haccrg/internal/staticrace"
	"haccrg/internal/swdetect"
)

// DetectorKind selects the detection configuration of a run.
type DetectorKind string

// Detector configurations used across the experiments.
const (
	DetOff          DetectorKind = "off"
	DetShared       DetectorKind = "shared"
	DetGlobal       DetectorKind = "global"
	DetSharedGlobal DetectorKind = "shared+global"
	DetFig8         DetectorKind = "shared-shadow-in-global"
	DetSoftware     DetectorKind = "sw-haccrg"
	DetGRace        DetectorKind = "grace-addr"
)

// RunConfig describes one simulation run. Its JSON names are the job
// spec's wire and spool names (service.JobSpec embeds it) and journal
// metadata's; the benchmark, device and watchdog are not job fields,
// so they have none. Manifests encode runs through their own view
// (manifestConfig).
type RunConfig struct {
	Bench    string       `json:"-"`
	Detector DetectorKind `json:"detector,omitempty"`
	Scale    int          `json:"scale,omitempty"`

	// SharedGranularity / GlobalGranularity override the detector's
	// tracking granularities when non-zero.
	SharedGranularity int `json:"shared_granularity,omitempty"`
	GlobalGranularity int `json:"global_granularity,omitempty"`

	SingleBlock bool     `json:"single_block,omitempty"`
	Inject      []string `json:"inject,omitempty"`

	// StaticFilter analyzes the plan's kernels with the static race
	// prover (internal/staticrace) and lets the RDUs skip checks at
	// provably race-free sites. Findings and cycle counts stay
	// byte-identical; only check work drops. Hardware detector kinds
	// only.
	StaticFilter bool `json:"static_filter,omitempty"`

	// WitnessSeed pre-seeds detector quarantine with the static
	// analyzer's verified race witnesses (see core.Detector.SetWitnessSeeds):
	// statically-proven racy global granules report on first touch with
	// StaticWitness provenance. Hardware detector kinds only.
	WitnessSeed bool `json:"witness_seed,omitempty"`

	// GPU overrides the device configuration (nil = paper's Table I).
	GPU *gpu.Config `json:"-"`

	// FaultPlan is an internal/fault plan spec (e.g.
	// "queue:cap=16,drain=1;flip:rate=1e-5,ecc"); empty = fault-free.
	FaultPlan string `json:"fault_plan,omitempty"`
	// FaultSeed seeds the fault injector: the same plan and seed
	// reproduce the same run byte for byte.
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// Degradation is the corrupt-granule policy: "quarantine" (default)
	// or "reinit".
	Degradation string `json:"degradation,omitempty"`

	// MaxCycles bounds each run's simulated cycles (0 = unlimited);
	// exceeding it aborts with a *gpu.HangError.
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// Timeout is the wall-clock watchdog per run (0 = none).
	Timeout time.Duration `json:"-"`
}

// RunResult captures one run's outcome.
type RunResult struct {
	Config RunConfig
	Stats  *gpu.LaunchStats

	Races       []*core.Race
	SharedSites int
	GlobalSites int
	Groups      map[string]int

	DetectorStats core.Stats
	// Software-detector extras (zero for hardware runs).
	InstrStall int64
	LogBytes   int64

	// Health is the detector's degradation report (nil when the
	// detector does not track health, e.g. detection off).
	Health *gpu.DetectorHealth

	// Report is the machine-readable detection summary (nil when
	// detection is off). It is derived state — excluded from the
	// manifest encoding, so resumed results carry a nil Report while
	// every serialized field stays byte-identical.
	Report *core.Report `json:"-"`
	// Timeline is the run's journal rendered by journal.Timeline
	// (empty unless ExecOptions.Trace); like Report it is in-process
	// state only.
	Timeline string `json:"-"`
}

// detectorFor builds the detector rc runs under, from rc's kind and
// granularities with rc's fault plan and degradation policy merged in.
// Every kind but off runs on one core engine; the second return is the
// engine whose findings and report the run returns (the detector
// itself, or the engine sw-haccrg embeds), nil for off and for
// grace-addr, which keeps only its races.
func detectorFor(rc RunConfig) (gpu.Detector, *core.Detector, error) {
	if err := rc.Detector.valid(); err != nil {
		return nil, nil, err
	}
	opt, err := rc.runOptions(rc.DetectorOptions())
	if err != nil {
		return nil, nil, err
	}
	switch {
	case rc.Detector.off():
		return gpu.NopDetector{}, nil, nil
	case rc.Detector == DetSoftware:
		d, err := swdetect.New(opt)
		if err != nil {
			return nil, nil, err
		}
		return d, d.Detector, nil
	case rc.Detector == DetGRace:
		d, err := grace.New(opt)
		if err != nil {
			return nil, nil, err
		}
		return d, nil, nil
	}
	d, err := core.New(opt)
	if err != nil {
		return nil, nil, err
	}
	return d, d, nil
}

// DetectorFor builds the detector a configuration would run under —
// how the replay tool reconstructs a recorded run's detector (or a
// deliberately different one) without a device attached.
func DetectorFor(rc RunConfig) (gpu.Detector, error) {
	det, _, err := detectorFor(rc)
	return det, err
}

// ExecOptions carries the per-run extras that are not part of a
// RunConfig's serializable identity: output verification, the event
// timeline, and journal recording. Every execution path in the system
// — the haccrg facade, the haccrg command's modes, the experiment
// sweeps, and the daemon's job workers — funnels through ExecContext
// with some ExecOptions, so they all run the exact same job core.
type ExecOptions struct {
	// Verify checks kernel output against the host reference where the
	// benchmark defines one.
	Verify bool
	// Trace journals the run, to Record too when that is set, and
	// renders the journal's timeline into RunResult.Timeline.
	Trace bool
	// Record writes a durable event journal of the run in the
	// internal/journal frame format (nil = no journal).
	Record io.Writer

	// wrap, when set, wraps the whole detector chain, journal included,
	// as the device sees it: how tests put a detector between the
	// device and every detector a run builds.
	wrap func(gpu.Detector) gpu.Detector
}

// execMeta describes a run for the journal header so replay can
// rebuild an equivalent detector without out-of-band knowledge: every
// kind but off records the granularities it ran at, grace-addr too.
func execMeta(rc RunConfig, seeds seedSet) *journal.Meta {
	m := &journal.Meta{
		Bench: rc.Bench, Detector: string(rc.Detector),
		Scale: rc.Scale, SingleBlock: rc.SingleBlock, Inject: rc.Inject,
		FaultPlan: rc.FaultPlan, FaultSeed: rc.FaultSeed, Degradation: rc.Degradation,
		Seeds: seeds,
	}
	if rc.Detector.off() {
		m.Detector = string(DetOff)
	} else {
		opt := rc.DetectorOptions()
		m.SharedGranularity, m.GlobalGranularity = opt.SharedGranularity, opt.GlobalGranularity
	}
	return m
}

// ExecContext is the shared job core: it validates one configuration
// (Validate) and executes it under a context with the given extras.
// The config's Timeout (wall clock) and MaxCycles (simulated) guard
// rails turn runaway simulations into structured *gpu.HangError
// returns; a panic anywhere in the pipeline is recovered into an error
// so one bad run cannot take down a whole sweep. On an aborted launch
// the returned RunResult is non-nil alongside the error, carrying the
// partial stats and whatever races were found before the abort.
func ExecContext(ctx context.Context, rc RunConfig, xo ExecOptions) (res *RunResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fmt.Errorf("harness: run %s/%s panicked: %v", rc.Bench, rc.Detector, r)
		}
	}()
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	rc.Scale = max(rc.Scale, 1)
	det, eng, err := detectorFor(rc)
	if err != nil {
		return nil, err
	}
	sw, _ := det.(*swdetect.Detector) // before the chain below wraps det
	gr, _ := det.(*grace.Detector)
	sink := xo.Record
	var traced bytes.Buffer
	if xo.Trace {
		// The timeline is rendered from the run's journal, held in
		// memory until the run ends.
		sink = &traced
		if xo.Record != nil {
			sink = io.MultiWriter(&traced, xo.Record)
		}
	}
	var jrec *journal.Recorder
	if sink != nil {
		jr, jerr := journal.NewRecorder(sink, det)
		if jerr != nil {
			return nil, jerr
		}
		jrec = jr
		det = jr
	}
	if xo.wrap != nil {
		det = xo.wrap(det)
	}
	cfg := rc.device()
	if eng != nil {
		// Request packets carry sync, fence and atomic IDs whenever
		// hardware global-memory RDUs check them; the software builds
		// model no RDU traffic.
		o := eng.Options()
		cfg.NoC.RDUMetaEnabled = o.ModelTraffic && (o.Global || o.SharedShadowInGlobal)
	}
	dev, plan, err := rc.build(cfg, det)
	if err != nil {
		return nil, err
	}
	var seeds seedSet
	if rc.StaticFilter || rc.WitnessSeed {
		f, err := staticrace.NewFilter(rc.AnalyzerConfig(eng.Options()), plan.Kernels...)
		if err != nil {
			return nil, fmt.Errorf("harness: static analysis of %s: %w", rc.Bench, err)
		}
		if rc.StaticFilter {
			eng.SetStaticFilter(f)
		}
		if rc.WitnessSeed {
			seeds = witnessSeeds(f, plan.Kernels)
			eng.SetWitnessSeeds(seeds)
		}
	}
	if jrec != nil {
		// The meta record follows static analysis so it can carry the
		// seed set, and precedes the first kernel's records.
		if err := jrec.SetMeta(execMeta(rc, seeds)); err != nil {
			return nil, err
		}
	}
	if rc.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rc.Timeout)
		defer cancel()
	}
	stats, runErr := plan.RunContext(ctx, dev, gpu.LaunchLimits{MaxCycles: rc.MaxCycles})
	if stats == nil {
		return nil, runErr
	}
	if runErr == nil && xo.Verify && plan.Verify != nil {
		if err := plan.Verify(dev); err != nil {
			return nil, err
		}
	}
	res = &RunResult{Config: rc, Stats: stats, Health: stats.Health}
	if xo.Trace {
		if res.Timeline, err = journal.Timeline(&traced); err != nil {
			return nil, err
		}
	}
	if eng != nil {
		res.Races = eng.SortedRaces()
		res.SharedSites = eng.SiteCount(isa.SpaceShared)
		res.GlobalSites = eng.SiteCount(isa.SpaceGlobal)
		res.Groups = eng.RaceGroups()
		res.DetectorStats = eng.Stats()
		res.Report = eng.Report()
	}
	if sw != nil {
		res.InstrStall = sw.InstrStallCycles
	}
	if gr != nil {
		res.InstrStall = gr.InstrStallCycles
		res.LogBytes = gr.LogBytes
		res.Races = gr.Races()
	}
	// A journal write failure never aborts the simulation (the detector
	// interface has no error path), but it must not pass silently: the
	// run succeeded, the recording did not.
	if runErr == nil && jrec != nil && jrec.Err() != nil {
		return res, fmt.Errorf("harness: journal recording failed: %w", jrec.Err())
	}
	return res, runErr
}

// seedSet is a run's witness seed set per kernel name: the
// core.WitnessSeeder the detector is seeded from, and the set a
// journal's meta record carries to replay.
type seedSet map[string][]core.SeedWitness

func (s seedSet) WitnessSeeds(kernel string) []core.SeedWitness { return s[kernel] }

// witnessSeeds collects the static analyzer's verified global race
// witnesses for the plan's kernels as core seeds (the adapter lives
// here because staticrace must not import core). Nil when no kernel
// has one.
func witnessSeeds(f *staticrace.Filter, ks []*gpu.Kernel) seedSet {
	var set seedSet
	for _, k := range ks {
		if _, done := set[k.Name]; done {
			continue
		}
		var out []core.SeedWitness
		for _, w := range f.RaceSeeds(k.Name) {
			out = append(out, core.SeedWitness{
				Space:   isa.SpaceGlobal,
				Granule: w.Granule,
				Class:   w.Class,
				PC:      w.PC, PC2: w.PC2,
				Block: w.Block, Tid: w.Tid,
				Block2: w.Block2, Tid2: w.Tid2,
			})
		}
		if out == nil {
			continue
		}
		if set == nil {
			set = seedSet{}
		}
		set[k.Name] = out
	}
	return set
}

// DetectorForJournal rebuilds, from a journal's meta record, the
// detector its run was recorded under and rewinds src for
// journal.Replay: the one function the replay CLI and the daemon's
// replay jobs share. A non-empty override replaces the recorded kind.
// Replaying under the recorded kind installs the recorded witness seed
// set, so a seeded run replays to its live verdict. A recorded fault
// plan is refused under a kind with no health report, as Validate
// refuses it live. With no surviving meta record the run replays under
// shared+global (or the override). The returned RunConfig is what the
// detector was built from.
func DetectorForJournal(src io.ReadSeeker, override DetectorKind) (gpu.Detector, RunConfig, error) {
	meta, err := journal.ReadMeta(src)
	if err != nil {
		return nil, RunConfig{}, err
	}
	if _, err := src.Seek(0, io.SeekStart); err != nil {
		return nil, RunConfig{}, err
	}
	rc := RunConfig{Detector: DetSharedGlobal}
	if meta != nil {
		rc = RunConfig{
			Bench:             meta.Bench,
			Detector:          DetectorKind(meta.Detector),
			SharedGranularity: meta.SharedGranularity,
			GlobalGranularity: meta.GlobalGranularity,
			FaultPlan:         meta.FaultPlan,
			FaultSeed:         meta.FaultSeed,
			Degradation:       meta.Degradation,
		}
	}
	recorded := rc.Detector
	if override != "" {
		rc.Detector = override
	}
	if err := rc.checkFaultPlan(); err != nil {
		return nil, rc, err
	}
	det, eng, err := detectorFor(rc)
	if err != nil {
		return nil, rc, err
	}
	if meta != nil && len(meta.Seeds) > 0 && rc.Detector == recorded && eng != nil {
		eng.SetWitnessSeeds(seedSet(meta.Seeds))
		rc.WitnessSeed = true
	}
	return det, rc, nil
}
