package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"haccrg/internal/gpu"
	"haccrg/internal/harness"
	"haccrg/internal/journal"
	"haccrg/internal/kernels"
	"haccrg/internal/staticrace"
)

// JobKind names the three workloads the daemon executes.
type JobKind string

// Job kinds.
const (
	// JobBench simulates one or more benchmarks under a detector
	// configuration — the journaled job class: every completed run is
	// checkpointed to a per-job manifest, so a drain or crash mid-job
	// resumes instead of restarting.
	JobBench JobKind = "bench"
	// JobReplay feeds an uploaded event journal through a detector
	// offline and compares the replayed verdict with the recorded one.
	JobReplay JobKind = "replay"
	// JobAnalyze runs the static race analyzer (CFG, lint passes,
	// race-freedom prover) over a benchmark's kernels without
	// simulating; results are served from the content-addressed report
	// cache when the program hash matches a prior submission.
	JobAnalyze JobKind = "analyze"
)

// JobSpec is a submitted job: the client-controlled description of
// what to execute. It is the durable identity of the job — specs are
// spooled to disk before admission is acknowledged, so an accepted job
// survives a daemon restart.
//
// The run fields are the embedded harness.RunConfig's, under its JSON
// names; the benchmark, device and per-run watchdog are not among them
// (Benches, SmallGPU and TimeoutMS say those for a job). Detector
// defaults to shared+global for bench and analyze jobs; a replay job
// reads only Detector, which overrides the journaled detector when
// non-empty.
type JobSpec struct {
	Kind JobKind `json:"kind"`

	// Benches are the benchmark names to run or analyze (bench and
	// analyze kinds). A bench job runs them as one sweep under one
	// manifest.
	Benches []string `json:"benches,omitempty"`

	harness.RunConfig

	// SmallGPU runs on the 4-SM test device instead of the Table I
	// machine.
	SmallGPU bool `json:"small_gpu,omitempty"`
	// TimeoutMS requests a per-job wall-clock deadline in milliseconds;
	// the server clamps it to its configured maximum. 0 means the
	// server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Job states.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateInterrupted = "interrupted" // drained mid-flight; resumes on restart
)

// RunSummary is one benchmark run's findings inside a bench job: the
// serializable verdict the byte-identical-resume invariant is stated
// over.
type RunSummary struct {
	Bench    string   `json:"bench"`
	Detector string   `json:"detector"`
	Cycles   int64    `json:"cycles"`
	Races    []string `json:"races"`
	// Resumed is true when this run was served from the job's manifest
	// (a pre-drain completion) rather than simulated in this process.
	Resumed bool `json:"resumed,omitempty"`
	// Degraded is true when the detector's health report shows dropped
	// checks, corruption, or quarantines — findings may under-report.
	Degraded bool `json:"degraded,omitempty"`
}

// ReplaySummary is a replay job's outcome.
type ReplaySummary struct {
	Detector  string   `json:"detector"`
	Kernels   int      `json:"kernels"`
	MemEvents int      `json:"mem_events"`
	Truncated bool     `json:"truncated,omitempty"`
	Races     []string `json:"races"`
	// Match reports the replay-equals-live oracle: true when the
	// journal recorded a verdict and the replayed one equals it byte
	// for byte. Nil when the journal holds no verdict to compare.
	Match *bool `json:"match,omitempty"`
}

// AnalyzeSummary is a static-analysis job's outcome.
type AnalyzeSummary struct {
	// ProgramHash is the content address of the analyzed kernels: the
	// SHA-256 of their canonical disassembly plus the analyzer
	// configuration. Identical programs hash identically, so repeat
	// submissions are served from the report cache without re-proving.
	ProgramHash string `json:"program_hash"`
	Findings    int    `json:"findings"`
	// Witnesses counts the checker-verified race witnesses across all
	// analyzed kernels (each one a concrete racing thread pair).
	Witnesses int `json:"witnesses"`
	// Report is the full staticrace suite report, embedded verbatim.
	Report json.RawMessage `json:"report"`
}

// JobStatus is the client-visible state of a job, also the durable
// completion record the spool persists.
type JobStatus struct {
	ID     string  `json:"id"`
	Tenant string  `json:"tenant"`
	Kind   JobKind `json:"kind"`
	State  string  `json:"state"`
	Error  string  `json:"error,omitempty"`

	Runs     []RunSummary    `json:"runs,omitempty"`
	Replay   *ReplaySummary  `json:"replay,omitempty"`
	Analyze  *AnalyzeSummary `json:"analyze,omitempty"`
	CacheHit bool            `json:"cache_hit,omitempty"`

	EnqueuedAt time.Time `json:"enqueued_at"`
	StartedAt  time.Time `json:"started_at,omitempty"`
	FinishedAt time.Time `json:"finished_at,omitempty"`
}

// validate rejects malformed specs at admission, before any resources
// are committed to them: a bench or analyze spec must expand into runs
// that each validate, and a replay spec's detector must build. A spec
// must not set the run fields its spooled form leaves out, or a
// recovered job would run other runs than the admitted one.
func (sp *JobSpec) validate() error {
	switch {
	case sp.TimeoutMS < 0:
		return fmt.Errorf("service: timeout_ms %d is negative", sp.TimeoutMS)
	case sp.Bench != "" || sp.GPU != nil || sp.Timeout != 0:
		return fmt.Errorf("service: a job spec sets benches, small_gpu and timeout_ms, not a run's benchmark, device or watchdog")
	}
	switch sp.Kind {
	case JobBench, JobAnalyze:
		if len(sp.Benches) == 0 {
			return fmt.Errorf("service: %s job needs at least one benchmark", sp.Kind)
		}
		if _, err := sp.RunConfigs(false); err != nil {
			return fmt.Errorf("service: %w", err)
		}
		return nil
	case JobReplay:
		// A replay runs the journal's benchmark, known only at execution;
		// its own settings are the detector it replays under.
		_, err := harness.DetectorFor(harness.RunConfig{Detector: sp.Detector, Degradation: sp.Degradation})
		if err != nil {
			return fmt.Errorf("service: %w", err)
		}
		return nil
	}
	return fmt.Errorf("service: unknown job kind %q", sp.Kind)
}

// RunConfigs expands a bench or analyze spec into the runs it stands
// for (harness.RunConfig.Expand), deterministically, so the same spec
// always maps to the same manifest keys and a resumed job lines up
// with its checkpoint. smallGPU forces the 4-SM test device. The
// haccrg CLI expands its flags through the same function, locally and
// before submitting them.
func (sp *JobSpec) RunConfigs(smallGPU bool) ([]harness.RunConfig, error) {
	rc := sp.RunConfig
	if rc.Detector == "" {
		rc.Detector = harness.DetSharedGlobal
	}
	if sp.SmallGPU || smallGPU {
		c := gpu.TestConfig()
		rc.GPU = &c
	}
	return rc.Expand(sp.Benches)
}

// execBench runs a bench job's sweep against its per-job manifest, on
// one worker: the daemon's job workers are its parallelism. Completed
// configurations already in the manifest are served from it
// (Resumed=true); fresh completions are appended and synced one by
// one, so a cancellation at any point leaves resumable state.
func execBench(ctx context.Context, sp *JobSpec, m *harness.Manifest, smallGPU bool) ([]RunSummary, error) {
	cfgs, err := sp.RunConfigs(smallGPU)
	if err != nil {
		return nil, err
	}
	sw := harness.Sweep{Ctx: ctx, Manifest: m, Workers: 1}
	resumable := make([]bool, len(cfgs))
	for i, rc := range cfgs {
		_, resumable[i] = sw.Lookup(rc)
	}
	results, err := sw.Run(cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]RunSummary, 0, len(results))
	for i, r := range results {
		races := make([]string, 0, len(r.Races))
		for _, race := range r.Races {
			races = append(races, race.String())
		}
		out = append(out, RunSummary{
			Bench:    r.Config.Bench,
			Detector: string(r.Config.Detector),
			Cycles:   r.Stats.Cycles,
			Races:    races,
			Resumed:  resumable[i],
			Degraded: r.Health != nil && r.Health.Degraded,
		})
	}
	return out, nil
}

// execReplay replays an uploaded journal through the recorded detector
// (or an override) and reports the oracle verdict.
func execReplay(ctx context.Context, sp *JobSpec, journalPath string) (*ReplaySummary, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f, err := os.Open(journalPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	det, rc, err := harness.DetectorForJournal(f, sp.Detector)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	res, err := journal.Replay(f, det)
	if err != nil {
		return nil, err
	}
	sum := &ReplaySummary{
		Detector:  string(rc.Detector),
		Kernels:   res.Kernels,
		MemEvents: res.MemEvents,
		Truncated: res.Salvage.Truncated,
		Races:     append([]string{}, res.Replayed...),
	}
	if res.Recorded != nil {
		match := res.Match
		sum.Match = &match
	}
	return sum, nil
}

// programHash content-addresses a set of kernels under an analyzer
// configuration: the SHA-256 of each kernel's identity (name, launch
// geometry, shared allocation, parameters) and canonical disassembly,
// plus the granularities and warp size the prover models. Two
// submissions that assemble the same programs hash identically no
// matter which benchmark names produced them.
func programHash(conf staticrace.Config, ks []*gpu.Kernel) string {
	h := sha256.New()
	fmt.Fprintf(h, "haccrg-analyze/2 warp=%d aware=%t sg=%d gg=%d\n",
		conf.WarpSize, conf.WarpAware, conf.SharedGranularity, conf.GlobalGranularity)
	for _, k := range ks {
		fmt.Fprintf(h, "kernel %s grid=%d block=%d shared=%d params=%v\n",
			k.Name, k.GridDim, k.BlockDim, k.SharedBytes, k.Params)
		for pc := range k.Prog.Code {
			fmt.Fprintf(h, "%d %s\n", pc, k.Prog.Code[pc].String())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// execAnalyze runs (or serves from cache) a static-analysis job.
func execAnalyze(ctx context.Context, sp *JobSpec, cache *reportCache, smallGPU bool) (*AnalyzeSummary, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	runs, err := sp.RunConfigs(smallGPU)
	if err != nil {
		return nil, false, err
	}
	// Every run of a spec shares its device and detector options, so
	// one analyzer configuration covers them all.
	conf := runs[0].AnalyzerConfig(runs[0].DetectorOptions())
	var ks []*gpu.Kernel
	for _, rc := range runs {
		k, err := rc.Kernels()
		if err != nil {
			return nil, false, err
		}
		ks = append(ks, k...)
	}
	hash := programHash(conf, ks)
	if cache != nil {
		if rep, findings, witnesses, ok := cache.get(hash); ok {
			return &AnalyzeSummary{ProgramHash: hash, Findings: findings, Witnesses: witnesses, Report: rep}, true, nil
		}
	}
	analyses, err := harness.Analyze(ks, conf)
	if err != nil {
		return nil, false, fmt.Errorf("service: %w", err)
	}
	rep := staticrace.BuildReport(analyses, true)
	raw := json.RawMessage(rep.JSON())
	if cache != nil {
		cache.put(hash, raw, rep.Findings, rep.Witnesses)
	}
	return &AnalyzeSummary{ProgramHash: hash, Findings: rep.Findings, Witnesses: rep.Witnesses, Report: raw}, false, nil
}

// BenchNames returns the simulator's benchmark suite in canonical
// order — what a client sees on the discovery endpoint.
func BenchNames() []string {
	var out []string
	for _, b := range kernels.All() {
		out = append(out, b.Name)
	}
	sort.Strings(out)
	return out
}
