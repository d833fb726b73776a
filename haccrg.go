// Package haccrg is a from-scratch reproduction of "HAccRG:
// Hardware-Accelerated Data Race Detection in GPUs" (Holey, Mekkat,
// Zhai — ICPP 2013): a cycle-level SIMT GPU simulator with
// hardware Race Detection Units attached to the shared-memory banks
// and the memory partitions, plus the paper's software baselines and
// its ten-benchmark evaluation suite.
//
// The top-level API wraps the internal packages:
//
//	det := haccrg.MustNewDetector(haccrg.DefaultDetection())
//	dev := haccrg.MustNewDevice(haccrg.DefaultGPU(), 1<<22, det)
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
	// RunBenchmark takes the options of a hardware -detect kind at any
	// power-of-two granularities: DefaultDetection, with Global and
	// DetectStaleL1 off (shared), Shared off (global), or
	// SharedShadowInGlobal on (shared-shadow-in-global). It refuses
	// others by field name before it builds anything, so every run it
	// accepts replays from its journal to the live verdict; build other
	// detectors with NewDetector and NewDevice. The fault plan,
	// degradation policy, static filter and witness seeding are set
	// through the RunOptions fields below.
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
	// Trace renders an event timeline (kernel lifecycle, barriers,
	// races) from the run's journal, held in memory until the run ends.
	Trace bool
	// Record writes a durable event journal of the run — every kernel
	// launch, warp memory event, fence response and verdict, in the
	// CRC-framed format of internal/journal — suitable for offline
	// replay through `haccrg replay` (nil = no journal).
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
	// Trace is the event timeline (empty unless RunOptions.Trace).
	Trace string
	// Health is the detector's degradation report (nil when detection
	// is off).
	Health *DetectorHealth
}

// RunBenchmark builds, runs and optionally verifies one benchmark.
func RunBenchmark(name string, opts RunOptions) (*RunResult, error) {
	return RunBenchmarkContext(context.Background(), name, opts)
}

// RunBenchmarkContext is RunBenchmark under a context: cancellation
// (e.g. a CLI's SIGINT handler) aborts the simulation with a
// *HangError carrying partial stats, and — when a journal is being
// recorded — leaves a well-framed journal prefix behind.
//
// The execution itself is harness.ExecContext — the same job core the
// CLI, the experiment sweeps, and the daemon's job workers run — so a
// benchmark is validated and behaves identically no matter which
// entry point launched it. The facade adds only the mapping from the
// public RunOptions to the harness run specification; a recorded run
// replays through harness.DetectorForJournal to its live verdict.
func RunBenchmarkContext(ctx context.Context, name string, opts RunOptions) (*RunResult, error) {
	rc := harness.RunConfig{
		Bench:        name,
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
	if opts.Detection != nil {
		var err error
		if rc, err = rc.WithDetection(*opts.Detection); err != nil {
			return nil, fmt.Errorf("RunOptions.Detection: %w", err)
		}
	}
	xo := harness.ExecOptions{Verify: opts.Verify, Trace: opts.Trace, Record: opts.Record}
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
		Trace:  hres.Timeline,
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
	rc := harness.RunConfig{Bench: name, Scale: opts.Scale, SingleBlock: opts.SingleBlock, Inject: opts.Inject, GPU: opts.GPU}
	ks, err := rc.Kernels()
	if err != nil {
		return nil, err
	}
	dopt := rc.DetectorOptions()
	if opts.Detection != nil {
		dopt = *opts.Detection
	}
	return harness.Analyze(ks, rc.AnalyzerConfig(dopt))
}

// BuildStaticReport converts analyses into the serializable report
// (withSites includes the prover's per-site classification).
func BuildStaticReport(analyses []*StaticAnalysis, withSites bool) *StaticReport {
	return staticrace.BuildReport(analyses, withSites)
}

// sweep is the zero sweep the Experiments drivers run under.
var sweep harness.Sweep

// Experiments re-exports the harness entry points so downstream users
// can regenerate the paper's tables and figures programmatically. The
// drivers that simulate are bound to a zero harness.Sweep: no
// cancellation, no manifest, no guard rails, GOMAXPROCS workers.
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
	Table2:       sweep.Table2,
	Table3:       sweep.Table3,
	Table4:       harness.Table4,
	Fig7:         sweep.Fig7,
	Fig8:         sweep.Fig8,
	Fig9:         sweep.Fig9,
	RealRaces:    sweep.RealRaces,
	Injected:     sweep.Injected,
	BloomStress:  harness.BloomStress,
	IDUsage:      sweep.IDUsage,
	HardwareCost: harness.HardwareCost,
	TLBStudy: func(scale int) ([]harness.TLBResult, string, error) {
		return harness.TLBStudy(scale, tlb.DefaultConfig)
	},
	WarpRegroupStudy: func() (string, error) {
		_, _, txt, err := harness.WarpRegroupStudy()
		return txt, err
	},
	BloomEndToEnd:  harness.BloomEndToEnd,
	SyncIDGating:   sweep.SyncIDGatingStudy,
	SchedulerStudy: sweep.SchedulerStudy,
	FaultStudy:     sweep.FaultStudy,
}
