package core

import (
	"fmt"

	"haccrg/internal/bloom"
	"haccrg/internal/fault"
	"haccrg/internal/isa"
)

// DegradationPolicy selects what the detector does with shadow
// granules the modeled ECC scrub flags as corrupt (stuck-at cells).
type DegradationPolicy uint8

// Degradation policies.
const (
	// DegradeQuarantine removes flagged granules from tracking; later
	// checks on them are skipped and counted as false-negative
	// exposure in DetectorHealth.
	DegradeQuarantine DegradationPolicy = iota
	// DegradeReinit conservatively re-initializes flagged entries to
	// the no-access state, keeping the granule tracked at the cost of
	// forgetting its access history (possible missed races, never
	// spurious ones).
	DegradeReinit
)

func (p DegradationPolicy) String() string {
	if p == DegradeReinit {
		return "reinit"
	}
	return "quarantine"
}

// StaticFilter supplies per-kernel masks of access sites a static
// analysis proved race-free (internal/staticrace implements it). The
// detector consults the mask at each warp memory event and skips the
// shadow lookups and state-machine checks for proven sites; the RDUs'
// shadow *traffic* is still modeled, so cycle counts are unchanged and
// only check work disappears. The filter is inert when a fault plan is
// attached: dropping checks would desynchronize the injector streams
// and change which faults land.
type StaticFilter interface {
	// FilterSites returns the mask for the named kernel: mask[pc] true
	// means every access issued by that program counter is provably
	// race-free. A nil mask means no information (nothing filtered).
	FilterSites(kernel string) []bool
}

// SeedWitness is one statically-proven racy granule handed to the
// detector for quarantine pre-seeding: the static analyzer found and
// machine-verified a concrete racing write pair on the granule, so the
// detector reports it on first touch — with StaticWitness provenance —
// instead of waiting for the dynamic pair to line up. Only global
// seeds are honored (shared shadow windows are recycled per block and
// reset at barriers; a static shared seed has no stable runtime key).
//
// The JSON form is how journals carry a run's seed set to replay.
type SeedWitness struct {
	Space   isa.Space `json:"space"`
	Granule uint64    `json:"granule"` // granule index within the space
	Class   string    `json:"class"`   // staticrace witness class (guarantee argument)

	// The statically-proven racing pair, reported as the race's
	// first/second accessors.
	PC     int `json:"pc"`
	PC2    int `json:"pc2"`
	Block  int `json:"block"`
	Tid    int `json:"tid"`
	Block2 int `json:"block2"`
	Tid2   int `json:"tid2"`
}

// WitnessSeeder supplies the per-kernel seed set; the static analyzer
// layer implements it (structurally, like StaticFilter — core must not
// import staticrace).
type WitnessSeeder interface {
	// WitnessSeeds returns the verified racy granules for the named
	// kernel, or nil when none are known.
	WitnessSeeds(kernel string) []SeedWitness
}

// Options configures HAccRG detection.
type Options struct {
	// Shared enables the per-SM shared-memory RDUs.
	Shared bool
	// Global enables the per-partition global-memory RDUs.
	Global bool

	// SharedGranularity maps this many consecutive shared-memory bytes
	// to one shadow entry. The paper settles on 16 bytes (7 of 10
	// benchmarks show no false positives there, Section VI-A1).
	SharedGranularity int
	// GlobalGranularity is the global-memory tracking granularity; the
	// paper keeps 4 bytes since device memory is plentiful.
	GlobalGranularity int

	// SharedShadowInGlobal stores the shared-memory shadow entries in
	// global memory instead of SM hardware, fetched through the L1
	// (the Figure 8 experiment).
	SharedShadowInGlobal bool

	// WarpAware suppresses races between lanes of the same warp, which
	// execute in lockstep and are implicitly ordered. Disable it when
	// modelling dynamic warp re-grouping (Section III-A).
	WarpAware bool

	// DetectStaleL1 enables the L1-hit stale-read check of Section
	// IV-B (needs Global).
	DetectStaleL1 bool

	// Bloom is the atomic-ID signature layout.
	Bloom bloom.Config

	// ModelTraffic injects the hardware RDUs' shadow-memory traffic
	// and barrier-invalidation stalls into the timing model. Software
	// reimplementations (internal/swdetect, internal/grace) disable it
	// and charge their own instrumentation costs instead.
	ModelTraffic bool

	// Fault optionally attaches a deterministic fault-injection plan
	// to the RDUs and shadow memory (nil or empty = fault-free, the
	// paper's idealized hardware). See internal/fault.
	Fault *fault.Plan
	// FaultSeed seeds the injector's PRNG: the same (Fault, FaultSeed)
	// pair reproduces the same fault sequence byte for byte.
	FaultSeed int64
	// Degradation selects the corrupt-granule policy (quarantine by
	// default).
	Degradation DegradationPolicy
}

// DefaultOptions returns the configuration evaluated in the paper:
// both RDUs enabled, 16-byte shared and 4-byte global granularity,
// warp-aware reporting, 16-bit 2-bin signatures.
func DefaultOptions() Options {
	return Options{
		Shared:            true,
		Global:            true,
		SharedGranularity: 16,
		GlobalGranularity: 4,
		WarpAware:         true,
		DetectStaleL1:     true,
		Bloom:             bloom.DefaultConfig,
		ModelTraffic:      true,
	}
}

// Validate checks the options.
func (o *Options) Validate() error {
	if !o.Shared && !o.Global {
		return fmt.Errorf("core: at least one of Shared/Global must be enabled")
	}
	if o.SharedGranularity <= 0 || o.SharedGranularity&(o.SharedGranularity-1) != 0 {
		return fmt.Errorf("core: shared granularity %d not a power of two", o.SharedGranularity)
	}
	if o.GlobalGranularity <= 0 || o.GlobalGranularity&(o.GlobalGranularity-1) != 0 {
		return fmt.Errorf("core: global granularity %d not a power of two", o.GlobalGranularity)
	}
	if err := o.Bloom.Validate(); err != nil {
		return err
	}
	if o.SharedShadowInGlobal && !o.Shared {
		return fmt.Errorf("core: SharedShadowInGlobal requires Shared")
	}
	if o.DetectStaleL1 && !o.Global {
		return fmt.Errorf("core: DetectStaleL1 requires Global")
	}
	if o.Fault != nil {
		if err := o.Fault.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Stats aggregates detection activity.
type Stats struct {
	SharedChecks  int64 // lane-level shared-memory RDU checks
	GlobalChecks  int64 // lane-level global-memory RDU checks
	ShadowReads   int64 // shadow transactions injected (reads)
	ShadowWrites  int64 // shadow transactions injected (writes)
	Reports       int64 // dynamic race reports (before dedup)
	SharedReports int64 // dynamic reports in the shared space
	GlobalReports int64 // dynamic reports in the global space
	BarrierInval  int64 // shared shadow invalidation episodes
	FenceLookups  int64 // race-register-file fence-ID reads
	// FilteredChecks counts lane checks skipped because their site was
	// statically proven race-free (Detector.SetStaticFilter). Each filtered
	// lane would otherwise have been a SharedChecks or GlobalChecks.
	FilteredChecks int64
}
