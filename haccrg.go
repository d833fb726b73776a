// Package haccrg is a from-scratch reproduction of "HAccRG:
// Hardware-Accelerated Data Race Detection in GPUs" (Holey, Mekkat,
// Zhai — ICPP 2013): a cycle-level SIMT GPU simulator with
// hardware Race Detection Units attached to the shared-memory banks
// and the memory partitions, plus the paper's software baselines and
// its ten-benchmark evaluation suite.
//
// The top-level API wraps the internal packages:
//
//	dev := haccrg.MustNewDevice(haccrg.DefaultGPU(), 1<<22, det)
//	det := haccrg.MustNewDetector(haccrg.DefaultDetection())
//	res, err := haccrg.RunBenchmark("reduce", haccrg.RunOptions{})
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduced tables and figures.
package haccrg

import (
	"context"
	"fmt"
	"io"
	"time"

	"haccrg/internal/core"
	"haccrg/internal/fault"
	"haccrg/internal/gpu"
	"haccrg/internal/harness"
	"haccrg/internal/isa"
	"haccrg/internal/kernels"
	"haccrg/internal/staticrace"
	"haccrg/internal/tlb"
	"haccrg/internal/trace"
)

// Re-exported core types. Aliases keep the internal packages as the
// implementation while giving users importable names.
type (
	// GPUConfig describes the simulated device (Table I parameters).
	GPUConfig = gpu.Config
	// Device is a simulated GPU.
	Device = gpu.Device
	// Kernel is a launchable grid.
	Kernel = gpu.Kernel
	// LaunchStats aggregates execution statistics for a launch.
	LaunchStats = gpu.LaunchStats
	// DetectionOptions configures HAccRG (granularities, Bloom layout,
	// which RDUs are enabled).
	DetectionOptions = core.Options
	// Detector is the HAccRG race-detection engine.
	Detector = core.Detector
	// Race is one distinct detected data race.
	Race = core.Race
	// Benchmark is one of the paper's ten workloads.
	Benchmark = kernels.Benchmark
	// BenchParams configures a workload build (scale, injections).
	BenchParams = kernels.Params
	// ProgramBuilder assembles kernels in the simulator's ISA.
	ProgramBuilder = isa.Builder
	// HangError is the structured abort report of a launch that
	// deadlocked, exhausted its cycle budget, or was canceled; it
	// carries per-block barrier-wait diagnostics (see Diagnose).
	HangError = gpu.HangError
	// LaunchLimits bounds a kernel launch (simulated-cycle budget).
	LaunchLimits = gpu.LaunchLimits
	// DetectorHealth is the detector's graceful-degradation report:
	// dropped checks, applied corruption, quarantines, and an estimate
	// of the resulting false-negative exposure.
	DetectorHealth = gpu.DetectorHealth
	// FaultPlan is a deterministic fault-injection plan for the RDU
	// pipeline and shadow memory.
	FaultPlan = fault.Plan
	// ValidateError is a typed ISA validation failure: the offending
	// program, PC (-1 for whole-program defects), a machine-checkable
	// kind, and a human detail string.
	ValidateError = isa.ValidateError
	// ValidateErrKind enumerates the ISA validation failure classes.
	ValidateErrKind = isa.ValidateErrKind
)

// ParseFaultPlan parses a fault-plan spec such as
// "queue:cap=16,drain=1;flip:rate=1e-5,ecc;spike:extra=400,period=64".
func ParseFaultPlan(spec string) (*FaultPlan, error) { return fault.Parse(spec) }

// Race kind and category constants, re-exported.
const (
	KindWAR = core.KindWAR
	KindRAW = core.KindRAW
	KindWAW = core.KindWAW

	CatBarrier    = core.CatBarrier
	CatCrossBlock = core.CatCrossBlock
	CatLockset    = core.CatLockset
	CatFence      = core.CatFence
	CatStaleL1    = core.CatStaleL1
	CatIntraWarp  = core.CatIntraWarp
)

// DefaultGPU returns the paper's Table I machine: an NVIDIA Quadro
// FX5800-class GPU (30 SMs, 8 memory partitions) with Fermi-style
// L1/L2 caches.
func DefaultGPU() GPUConfig { return gpu.DefaultConfig() }

// SmallGPU returns a scaled-down device (4 SMs, 2 partitions) for
// fast experimentation and tests.
func SmallGPU() GPUConfig { return gpu.TestConfig() }

// DefaultDetection returns the paper's evaluated HAccRG configuration:
// both RDUs, 16-byte shared / 4-byte global granularity, warp-aware
// reporting, 16-bit 2-bin lockset signatures.
func DefaultDetection() DetectionOptions { return core.DefaultOptions() }

// NewDetector builds a HAccRG detector.
func NewDetector(opt DetectionOptions) (*Detector, error) { return core.New(opt) }

// MustNewDetector is NewDetector panicking on invalid options.
func MustNewDetector(opt DetectionOptions) *Detector { return core.MustNew(opt) }

// NewDevice builds a simulated GPU with globalBytes of device memory
// and an optional race detector (nil disables detection).
func NewDevice(cfg GPUConfig, globalBytes int, det gpu.Detector) (*Device, error) {
	return gpu.NewDevice(cfg, globalBytes, det)
}

// MustNewDevice is NewDevice panicking on error.
func MustNewDevice(cfg GPUConfig, globalBytes int, det gpu.Detector) *Device {
	return gpu.MustNewDevice(cfg, globalBytes, det)
}

// NewKernelBuilder starts assembling a kernel program.
func NewKernelBuilder(name string) *ProgramBuilder { return isa.NewBuilder(name) }

// Benchmarks returns the paper's benchmark suite in Table II order.
func Benchmarks() []*Benchmark { return kernels.All() }

// GetBenchmark returns a benchmark by name, or nil.
func GetBenchmark(name string) *Benchmark { return kernels.Get(name) }

// RunOptions configures RunBenchmark.
type RunOptions struct {
	// Detection enables HAccRG with these options (nil = detection off).
	Detection *DetectionOptions
	// Scale multiplies the workload's input sizes (default 1).
	Scale int
	// SingleBlock launches SCAN/KMEANS in their designed-for (bug-free)
	// configuration.
	SingleBlock bool
	// Inject activates race-injection sites by ID (see Benchmark.Sites).
	Inject []string
	// GPU overrides the device configuration (nil = DefaultGPU).
	GPU *GPUConfig
	// Verify checks kernel output against the host reference where the
	// benchmark defines one.
	Verify bool
	// Trace records an event timeline (kernel lifecycle, barriers,
	// races) alongside the run.
	Trace bool
	// Record writes a durable event journal of the run — every kernel
	// launch, warp memory event, fence response and verdict, in the
	// CRC-framed format of internal/journal — suitable for offline
	// replay through haccrg-replay (nil = no journal).
	Record io.Writer

	// StaticFilter runs the static race prover (internal/staticrace)
	// over the benchmark's kernels and lets the RDUs skip shadow checks
	// at sites proven race-free. Findings and cycle counts are
	// byte-identical to an unfiltered run — only detector work changes
	// (Report.Summary.Checks["filtered"] counts the skips). Requires
	// Detection; inert when a FaultPlan is attached (dropping checks
	// would desynchronize the injector's PRNG streams).
	StaticFilter bool

	// WitnessSeed pre-seeds detector quarantine with the static
	// analyzer's verified race witnesses: statically-proven racy global
	// granules report on first touch, tagged with StaticWitness
	// provenance (Race.Provenance). Seeded findings are identical with
	// and without fault plans, and a recorded seeded run replays to the
	// same verdict. Requires Detection.
	WitnessSeed bool

	// FaultPlan is a fault-injection spec (see ParseFaultPlan); empty
	// runs fault-free. Requires Detection.
	FaultPlan string
	// FaultSeed seeds the fault injector; the same plan and seed
	// reproduce the same faults byte for byte.
	FaultSeed int64
	// Degradation is the corrupt-granule policy: "quarantine"
	// (default) or "reinit".
	Degradation string
	// MaxCycles aborts the run once the simulated clock passes this
	// budget (0 = unlimited); the error is a *HangError with partial
	// stats still returned.
	MaxCycles int64
	// Timeout is a wall-clock watchdog over the whole run (0 = none).
	Timeout time.Duration
}

// RunResult is RunBenchmark's outcome.
type RunResult struct {
	Stats *LaunchStats
	Races []*Race
	// Report is the machine-readable detection summary (nil when
	// detection is off).
	Report *core.Report
	// Trace is the recorded event log (nil unless RunOptions.Trace).
	Trace *trace.Recorder
	// Health is the detector's degradation report (nil when detection
	// is off).
	Health *DetectorHealth
}

// RunBenchmark builds, runs and optionally verifies one benchmark.
func RunBenchmark(name string, opts RunOptions) (*RunResult, error) {
	return RunBenchmarkContext(context.Background(), name, opts)
}

// detectorKind names the DetectorKind a set of explicit detection
// options corresponds to — the identity under which journal metadata
// and server job specs describe the run.
func detectorKind(d *DetectionOptions) harness.DetectorKind {
	switch {
	case d == nil:
		return harness.DetOff
	case d.SharedShadowInGlobal:
		return harness.DetFig8
	case d.Shared && d.Global:
		return harness.DetSharedGlobal
	case d.Shared:
		return harness.DetShared
	case d.Global:
		return harness.DetGlobal
	}
	return harness.DetOff
}

// RunBenchmarkContext is RunBenchmark under a context: cancellation
// (e.g. a CLI's SIGINT handler) aborts the simulation with a
// *HangError carrying partial stats, and — when a journal is being
// recorded — leaves a well-framed journal prefix behind.
//
// The execution itself is harness.ExecContext — the same job core the
// CLIs, the experiment sweeps, and the haccrg-server workers run — so
// a benchmark behaves identically no matter which entry point launched
// it. The facade adds only option validation and the mapping between
// the public RunOptions and the harness job configuration.
func RunBenchmarkContext(ctx context.Context, name string, opts RunOptions) (*RunResult, error) {
	if kernels.Get(name) == nil {
		return nil, fmt.Errorf("haccrg: unknown benchmark %q (have %v)", name, benchNames())
	}
	if opts.Scale < 1 {
		opts.Scale = 1
	}
	if opts.Detection == nil {
		if opts.FaultPlan != "" {
			return nil, fmt.Errorf("haccrg: FaultPlan requires Detection (there is no RDU pipeline to fault)")
		}
		if opts.StaticFilter {
			return nil, fmt.Errorf("haccrg: StaticFilter requires Detection (there are no RDU checks to skip)")
		}
		if opts.WitnessSeed {
			return nil, fmt.Errorf("haccrg: WitnessSeed requires Detection (there is no detector to seed)")
		}
	}
	switch opts.Degradation {
	case "", "quarantine", "reinit":
	default:
		return nil, fmt.Errorf("haccrg: unknown degradation policy %q (want quarantine or reinit)", opts.Degradation)
	}
	rc := harness.RunConfig{
		Bench:        name,
		Detector:     detectorKind(opts.Detection),
		Scale:        opts.Scale,
		SingleBlock:  opts.SingleBlock,
		Inject:       opts.Inject,
		StaticFilter: opts.StaticFilter,
		WitnessSeed:  opts.WitnessSeed,
		GPU:          opts.GPU,
		FaultPlan:    opts.FaultPlan,
		FaultSeed:    opts.FaultSeed,
		Degradation:  opts.Degradation,
		MaxCycles:    opts.MaxCycles,
		Timeout:      opts.Timeout,
	}
	xo := harness.ExecOptions{
		Detection: opts.Detection,
		Verify:    opts.Verify,
		Trace:     opts.Trace,
		Record:    opts.Record,
	}
	hres, err := harness.ExecContext(ctx, rc, xo)
	if hres == nil {
		return nil, err
	}
	// On an aborted run (a *HangError) the result is returned alongside
	// the error: partial stats, the races found so far, and health.
	return &RunResult{
		Stats:  hres.Stats,
		Races:  hres.Races,
		Report: hres.Report,
		Trace:  hres.TraceRec,
		Health: hres.Health,
	}, err
}

// Static-analysis re-exports: the CFG/dataflow analyzer, its lint
// findings, and the race-freedom prover (see DESIGN.md, "Static
// analysis").
type (
	// StaticAnalysis is one kernel's full analysis result: CFG,
	// findings, per-site race-freedom verdicts and the filterable mask.
	StaticAnalysis = staticrace.Analysis
	// StaticReport is the serializable multi-kernel report.
	StaticReport = staticrace.SuiteReport
	// StaticFinding is one lint diagnostic, addressed by PC.
	StaticFinding = staticrace.Finding
	// StaticWitness is one machine-checked defect proof (a concrete
	// thread pair, instruction pair and, for races, a granule).
	StaticWitness = staticrace.Witness
)

// AnalyzeOptions configures AnalyzeBenchmark.
type AnalyzeOptions struct {
	// Scale, SingleBlock, Inject select the same kernel variants a run
	// with the matching RunOptions would launch.
	Scale       int
	SingleBlock bool
	Inject      []string
	// GPU sets the device geometry the analysis assumes (warp size;
	// nil = DefaultGPU).
	GPU *GPUConfig
	// Detection supplies the tracking granularities the prover models
	// (nil = DefaultDetection).
	Detection *DetectionOptions
}

// AnalyzeBenchmark builds a benchmark's kernels and runs the static
// analyzer over them without simulating anything: CFG construction,
// abstract interpretation, the lint passes, and the race-freedom
// prover. The returned analyses are in plan order; render them with
// BuildStaticReport.
func AnalyzeBenchmark(name string, opts AnalyzeOptions) ([]*StaticAnalysis, error) {
	bm := kernels.Get(name)
	if bm == nil {
		return nil, fmt.Errorf("haccrg: unknown benchmark %q (have %v)", name, benchNames())
	}
	if opts.Scale < 1 {
		opts.Scale = 1
	}
	cfg := gpu.DefaultConfig()
	if opts.GPU != nil {
		cfg = *opts.GPU
	}
	dev, err := gpu.NewDevice(cfg, bm.GlobalBytes(opts.Scale), nil)
	if err != nil {
		return nil, err
	}
	p := kernels.Params{Scale: opts.Scale, SingleBlock: opts.SingleBlock}
	if len(opts.Inject) > 0 {
		p.Inject = map[string]bool{}
		for _, id := range opts.Inject {
			p.Inject[id] = true
		}
	}
	plan, err := bm.Build(dev, p)
	if err != nil {
		return nil, err
	}
	dopt := core.DefaultOptions()
	if opts.Detection != nil {
		dopt = *opts.Detection
	}
	conf := staticrace.Config{
		WarpSize:          cfg.WarpSize,
		SharedGranularity: dopt.SharedGranularity,
		GlobalGranularity: dopt.GlobalGranularity,
		WarpAware:         dopt.WarpAware,
	}
	var out []*StaticAnalysis
	for _, k := range plan.Kernels {
		res, err := staticrace.Analyze(k, conf)
		if err != nil {
			return nil, fmt.Errorf("haccrg: static analysis of %s kernel %s: %w", name, k.Name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// BuildStaticReport converts analyses into the serializable report
// (withSites includes the prover's per-site classification).
func BuildStaticReport(analyses []*StaticAnalysis, withSites bool) *StaticReport {
	return staticrace.BuildReport(analyses, withSites)
}

func tlbDefaultConfig() tlb.Config { return tlb.DefaultConfig }

func benchNames() []string {
	var out []string
	for _, b := range kernels.All() {
		out = append(out, b.Name)
	}
	return out
}

// Experiments re-exports the harness entry points so downstream users
// can regenerate the paper's tables and figures programmatically.
var Experiments = struct {
	Table1       func(GPUConfig) string
	Table2       func(scale int) ([]harness.Table2Row, string, error)
	Table3       func(scale int) ([]harness.Table3Row, []harness.Table3Row, string, error)
	Table4       func(scale int) (map[string]int64, string, error)
	Fig7         func(scale int) ([]harness.Fig7Row, string, error)
	Fig8         func(scale int) ([]harness.Fig8Row, string, error)
	Fig9         func(scale int) ([]harness.Fig9Row, string, error)
	RealRaces    func(scale int) ([]harness.RealRaceReport, string, error)
	Injected     func(scale int) ([]harness.InjectedResult, string, error)
	BloomStress  func() string
	IDUsage      func(scale int) (string, error)
	HardwareCost func() string
	// Extensions beyond the paper's evaluation.
	TLBStudy         func(scale int) ([]harness.TLBResult, string, error)
	WarpRegroupStudy func() (string, error)
	BloomEndToEnd    func() (string, error)
	SyncIDGating     func(scale int) (string, error)
	SchedulerStudy   func(scale int) (string, error)
	FaultStudy       func(scale int, seed int64) ([]harness.FaultStudyRow, string, error)
}{
	Table1:       harness.Table1,
	Table2:       harness.Table2,
	Table3:       harness.Table3,
	Table4:       harness.Table4,
	Fig7:         harness.Fig7,
	Fig8:         harness.Fig8,
	Fig9:         harness.Fig9,
	RealRaces:    harness.RealRaces,
	Injected:     harness.Injected,
	BloomStress:  harness.BloomStress,
	IDUsage:      harness.IDUsage,
	HardwareCost: harness.HardwareCost,
	TLBStudy: func(scale int) ([]harness.TLBResult, string, error) {
		return harness.TLBStudy(scale, tlbDefaultConfig())
	},
	WarpRegroupStudy: func() (string, error) {
		_, _, txt, err := harness.WarpRegroupStudy()
		return txt, err
	},
	BloomEndToEnd:  harness.BloomEndToEnd,
	SyncIDGating:   harness.SyncIDGatingStudy,
	SchedulerStudy: harness.SchedulerStudy,
	FaultStudy:     harness.FaultStudy,
}

// SweepDefaults mirrors harness.SweepDefaults for CLI use.
type SweepDefaults = harness.SweepDefaults

// SetSweepDefaults installs process-wide fault/guard-rail defaults
// merged into every experiment sweep run (how the CLIs thread
// -fault-plan/-seed/-timeout/-max-cycles through the experiment
// drivers).
func SetSweepDefaults(d SweepDefaults) { harness.SetSweepDefaults(d) }

// SetParallelism sets how many simulations the experiment sweeps run
// concurrently: n <= 0 restores the default (GOMAXPROCS), n == 1
// forces serial sweeps. Each run owns its device and detector, and
// results are assembled in input order, so sweep output is
// byte-identical at any setting.
func SetParallelism(n int) { harness.SetParallelism(n) }

// Parallelism returns the resolved sweep worker count (always >= 1).
func Parallelism() int { return harness.Parallelism() }
