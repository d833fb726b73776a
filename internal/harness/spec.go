package harness

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"

	"haccrg/internal/core"
	"haccrg/internal/fault"
	"haccrg/internal/gpu"
	"haccrg/internal/kernels"
	"haccrg/internal/staticrace"
)

// A RunConfig is the one run specification. The facade, the CLI, the
// experiment sweeps and the daemon all describe a run with one, and
// this file is where a run is validated (Validate), expanded over
// several benchmarks (Expand), given its detector options
// (DetectorOptions) or taken from explicit ones (WithDetection), built
// (Kernels) and statically analyzed (AnalyzerConfig, Analyze).

// ErrUnknown is wrapped by the errors for a benchmark, detector kind,
// degradation policy or injection site that does not exist: usage
// errors, as opposed to settings that exist but do not combine.
var ErrUnknown = errors.New("unknown")

// detectorKinds lists every DetectorKind, in the order errors name
// them.
var detectorKinds = []DetectorKind{DetOff, DetShared, DetGlobal, DetSharedGlobal, DetFig8, DetSoftware, DetGRace}

func (k DetectorKind) valid() error {
	if k == "" || slices.Contains(detectorKinds, k) {
		return nil
	}
	return fmt.Errorf("%w detector %q (have %v)", ErrUnknown, k, detectorKinds)
}

func (k DetectorKind) off() bool { return k == DetOff || k == "" }

// Reports reports whether a run under k returns a detector report: a
// race summary and a health report. Off runs no detector, and
// grace-addr returns only its races.
func (k DetectorKind) Reports() bool { return !k.off() && k != DetGRace }

// hardware reports whether k runs the core engine as the device's
// detector: the kinds the static filter and witness seeding are
// defined against.
func (k DetectorKind) hardware() bool {
	switch k {
	case DetShared, DetGlobal, DetSharedGlobal, DetFig8:
		return true
	}
	return false
}

// detectorKind names the kind explicit detection options correspond
// to: the identity under which journal metadata and job specs describe
// a facade run.
func detectorKind(opt core.Options) DetectorKind {
	switch {
	case opt.SharedShadowInGlobal:
		return DetFig8
	case opt.Shared && opt.Global:
		return DetSharedGlobal
	case opt.Shared:
		return DetShared
	case opt.Global:
		return DetGlobal
	}
	return DetOff
}

var degradations = map[string]core.DegradationPolicy{
	"":           core.DegradeQuarantine,
	"quarantine": core.DegradeQuarantine,
	"reinit":     core.DegradeReinit,
}

// DetectorOptions returns the core options rc selects: the paper's
// defaults with rc's non-zero granularities, narrowed to rc's detector
// kind. The software kinds narrow their copy further when built.
func (rc RunConfig) DetectorOptions() core.Options {
	opt := core.DefaultOptions()
	if rc.SharedGranularity != 0 {
		opt.SharedGranularity = rc.SharedGranularity
	}
	if rc.GlobalGranularity != 0 {
		opt.GlobalGranularity = rc.GlobalGranularity
	}
	switch rc.Detector {
	case DetShared:
		opt.Global = false
		opt.DetectStaleL1 = false
	case DetGlobal:
		opt.Shared = false
	case DetFig8:
		opt.SharedShadowInGlobal = true
	}
	return opt
}

// WithDetection returns rc with its detector kind and granularities
// taken from explicit detection options: how the facade turns its
// DetectionOptions into a run spec, so that a journal's meta record, a
// manifest key and a job spec describe every facade run. It refuses
// options that the kind and granularities do not reproduce, naming the
// first field that differs: among them warp-unaware reporting, untimed
// RDUs, and the settings a RunConfig carries itself (fault plan and
// degradation). core.New builds such detectors directly.
func (rc RunConfig) WithDetection(opt core.Options) (RunConfig, error) {
	if err := opt.Validate(); err != nil {
		return rc, err
	}
	rc.Detector = detectorKind(opt)
	rc.SharedGranularity = opt.SharedGranularity
	rc.GlobalGranularity = opt.GlobalGranularity
	got, want := reflect.ValueOf(opt), reflect.ValueOf(rc.DetectorOptions())
	for i := range got.NumField() {
		if !reflect.DeepEqual(got.Field(i).Interface(), want.Field(i).Interface()) {
			return rc, fmt.Errorf("%s differs from detector kind %s's", got.Type().Field(i).Name, rc.Detector)
		}
	}
	return rc, nil
}

// runOptions merges rc's fault plan and degradation policy into opt:
// the knobs every detector build shares.
func (rc RunConfig) runOptions(opt core.Options) (core.Options, error) {
	if rc.FaultPlan != "" {
		p, err := fault.Parse(rc.FaultPlan)
		if err != nil {
			return opt, err
		}
		opt.Fault = p
		opt.FaultSeed = rc.FaultSeed
	}
	pol, ok := degradations[rc.Degradation]
	if !ok {
		return opt, fmt.Errorf("%w degradation policy %q (want quarantine or reinit)", ErrUnknown, rc.Degradation)
	}
	opt.Degradation = pol
	return opt, nil
}

// Validate reports whether rc describes a run ExecContext can execute:
// a known benchmark and detector kind, power-of-two granularities, a
// fault plan that parses and a kind that Reports its health, a known
// degradation policy, no negative scale, cycle budget or timeout, the
// static filter and witness seeding only under a hardware kind, and
// injection IDs that name sites of the benchmark.
// The errors it makes itself carry no package prefix; the surface
// reporting one adds its own.
func (rc RunConfig) Validate() error {
	bm := kernels.Get(rc.Bench)
	if bm == nil {
		var names []string
		for _, b := range kernels.All() {
			names = append(names, b.Name)
		}
		return fmt.Errorf("%w benchmark %q (have %v)", ErrUnknown, rc.Bench, names)
	}
	if err := rc.Detector.valid(); err != nil {
		return err
	}
	opt, err := rc.runOptions(rc.DetectorOptions())
	if err != nil {
		return err
	}
	if err := opt.Validate(); err != nil {
		return err
	}
	switch {
	case rc.Scale < 0:
		return fmt.Errorf("scale %d is negative", rc.Scale)
	case rc.MaxCycles < 0:
		return fmt.Errorf("cycle budget %d is negative", rc.MaxCycles)
	case rc.Timeout < 0:
		return fmt.Errorf("timeout %v is negative", rc.Timeout)
	case rc.checkFaultPlan() != nil:
		return rc.checkFaultPlan()
	case rc.StaticFilter && !rc.Detector.hardware():
		return fmt.Errorf("the static filter needs a hardware HAccRG detector, got %q", rc.Detector)
	case rc.WitnessSeed && !rc.Detector.hardware():
		return fmt.Errorf("witness seeding needs a hardware HAccRG detector, got %q", rc.Detector)
	}
	for _, id := range rc.Inject {
		if !hasSite(bm, id) {
			var ids []string
			for _, s := range bm.Sites {
				ids = append(ids, s.ID)
			}
			return fmt.Errorf("%w injection site %q for %s (its sites: %s)", ErrUnknown, id, bm.Name, strings.Join(ids, " "))
		}
	}
	return nil
}

// checkFaultPlan refuses a fault plan under a kind with no health
// report, where its degradation would pass unreported. Validate and
// DetectorForJournal both apply it.
func (rc RunConfig) checkFaultPlan() error {
	if rc.FaultPlan != "" && !rc.Detector.Reports() {
		return fmt.Errorf("a fault plan needs a detector with a health report, got %q", rc.Detector)
	}
	return nil
}

func hasSite(bm *kernels.Benchmark, id string) bool {
	return slices.ContainsFunc(bm.Sites, func(s kernels.Site) bool { return s.ID == id })
}

// Expand returns rc once per benchmark in benches, in order, each run
// validated. A single benchmark keeps rc.Inject as given. Across
// several, each run gets only the IDs that name its own sites, and an
// ID that names a site of none of them is an error.
func (rc RunConfig) Expand(benches []string) ([]RunConfig, error) {
	multi := len(benches) > 1 && len(rc.Inject) > 0
	used := make([]bool, len(rc.Inject))
	runs := make([]RunConfig, 0, len(benches))
	for _, b := range benches {
		run := rc
		run.Bench = b
		if bm := kernels.Get(b); multi && bm != nil {
			run.Inject = nil
			for i, id := range rc.Inject {
				if hasSite(bm, id) {
					run.Inject = append(run.Inject, id)
					used[i] = true
				}
			}
		}
		if err := run.Validate(); err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	for i, id := range rc.Inject {
		if multi && !used[i] {
			return nil, fmt.Errorf("%w injection site %q: none of %v declares it", ErrUnknown, id, benches)
		}
	}
	return runs, nil
}

// device returns the device configuration rc runs on.
func (rc RunConfig) device() gpu.Config {
	if rc.GPU != nil {
		return *rc.GPU
	}
	return gpu.DefaultConfig()
}

// build builds rc's benchmark on a fresh device with configuration cfg
// and detector det: the one place a run's scale, launch shape and
// injection sites become a plan. rc must validate.
func (rc RunConfig) build(cfg gpu.Config, det gpu.Detector) (*gpu.Device, *kernels.Plan, error) {
	bm := kernels.Get(rc.Bench)
	scale := max(rc.Scale, 1)
	dev, err := gpu.NewDevice(cfg, bm.GlobalBytes(scale), det)
	if err != nil {
		return nil, nil, err
	}
	p := kernels.Params{Scale: scale, SingleBlock: rc.SingleBlock}
	if len(rc.Inject) > 0 {
		p.Inject = make(map[string]bool, len(rc.Inject))
		for _, id := range rc.Inject {
			p.Inject[id] = true
		}
	}
	plan, err := bm.Build(dev, p)
	return dev, plan, err
}

// Kernels validates rc, builds its benchmark on its device without a
// detector, and returns the plan's kernels: what static analysis and
// disassembly read.
func (rc RunConfig) Kernels() ([]*gpu.Kernel, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	_, plan, err := rc.build(rc.device(), nil)
	if err != nil {
		return nil, err
	}
	return plan.Kernels, nil
}

// AnalyzerConfig returns the static analyzer configuration that models
// detector options opt on rc's device: the prover's race-freedom proofs
// hold for a detector only under its warp size, granularities and
// warp-aware suppression.
func (rc RunConfig) AnalyzerConfig(opt core.Options) staticrace.Config {
	return staticrace.Config{
		WarpSize:          rc.device().WarpSize,
		SharedGranularity: opt.SharedGranularity,
		GlobalGranularity: opt.GlobalGranularity,
		WarpAware:         opt.WarpAware,
	}
}

// Analyze runs the static analyzer over ks under conf, in order: the
// one analysis entry point of the facade, the CLI and the daemon.
func Analyze(ks []*gpu.Kernel, conf staticrace.Config) ([]*staticrace.Analysis, error) {
	out := make([]*staticrace.Analysis, 0, len(ks))
	for _, k := range ks {
		a, err := staticrace.Analyze(k, conf)
		if err != nil {
			return nil, fmt.Errorf("static analysis of kernel %s: %w", k.Name, err)
		}
		out = append(out, a)
	}
	return out, nil
}
