package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"haccrg/internal/gpu"
	"haccrg/internal/harness"
	"haccrg/internal/journal"
	"haccrg/internal/service"
)

// The four invariants every campaign step is checked against. They
// are the system's cross-layer robustness contract — what must hold
// no matter which faults fire.
const (
	// InvNeverSilent: damage is never silent. A fault either leaves
	// behavior unchanged or surfaces as an error / a Degraded health
	// report; findings never quietly diverge from the fault-free truth.
	InvNeverSilent = "never-silent-divergence"
	// InvJobsNeverDropped: a job whose admission was acknowledged
	// survives any crash and is re-admitted on recovery, in original
	// submission order.
	InvJobsNeverDropped = "accepted-jobs-never-dropped"
	// InvCrashResume: a workload killed mid-flight and resumed from its
	// durable state finishes with byte-identical results.
	InvCrashResume = "crash-resume-byte-identical"
	// InvReplayEqualsLive: a successfully recorded journal replays to
	// the live run's exact verdict.
	InvReplayEqualsLive = "replay-equals-live"
)

// InvariantError reports a violated invariant — the only error class a
// scenario treats as a finding rather than an infrastructure failure.
type InvariantError struct {
	Invariant string
	Detail    string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("invariant %s violated: %s", e.Invariant, e.Detail)
}

// Violation is a campaign finding, minimized and ready to reproduce.
type Violation struct {
	Scenario  string
	Step      int
	SubSeed   int64
	Invariant string
	Detail    string
	FSSched   string
	HTTPSched string
	Fired     []string
}

// Repro renders the one-line reproduction command.
func (v *Violation) Repro() string {
	s := fmt.Sprintf("haccrg chaos -scenario %s -sub-seed %d", v.Scenario, v.SubSeed)
	if v.FSSched != "" {
		s += fmt.Sprintf(" -fs %q", v.FSSched)
	}
	if v.HTTPSched != "" {
		s += fmt.Sprintf(" -http %q", v.HTTPSched)
	}
	return s
}

func (v *Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: INVARIANT VIOLATED: %s\n", v.Invariant)
	fmt.Fprintf(&b, "  scenario: %s (step %d, sub-seed %d)\n", v.Scenario, v.Step, v.SubSeed)
	if v.FSSched != "" {
		fmt.Fprintf(&b, "  fs faults:   %s\n", v.FSSched)
	}
	if v.HTTPSched != "" {
		fmt.Fprintf(&b, "  http faults: %s\n", v.HTTPSched)
	}
	for _, f := range v.Fired {
		fmt.Fprintf(&b, "  fired: %s\n", f)
	}
	fmt.Fprintf(&b, "  detail: %s\n", v.Detail)
	fmt.Fprintf(&b, "  repro:  %s\n", v.Repro())
	return b.String()
}

// stepEnv is what one scenario execution sees: a scratch directory, the
// fault schedules chosen for the step, and a deterministic workload
// seed. Scenarios derive every workload decision from Seed alone, so a
// repro line (scenario, sub-seed, schedules) replays byte-for-byte.
type stepEnv struct {
	Seed int64
	Dir  string
	FS   *Schedule
	HTTP *HTTPSchedule

	fsInst *FaultFS        // created lazily; Fired feeds the violation report
	htInst *FaultTransport //
	logf   func(format string, args ...any)
}

// faultFS builds (once) the step's fault filesystem.
func (e *stepEnv) faultFS() *FaultFS {
	if e.fsInst == nil {
		e.fsInst = NewFaultFS(nil, e.FS)
	}
	return e.fsInst
}

// transport builds (once) the step's fault HTTP transport.
func (e *stepEnv) transport() *FaultTransport {
	if e.htInst == nil {
		e.htInst = NewFaultTransport(nil, e.HTTP)
	}
	return e.htInst
}

func (e *stepEnv) fired() []string {
	var out []string
	if e.fsInst != nil {
		out = append(out, e.fsInst.Fired()...)
	}
	if e.htInst != nil {
		out = append(out, e.htInst.Fired()...)
	}
	return out
}

// scenarioDef is one registered chaos scenario: schedule generators
// (drawing from the step's PRNG) plus the run body.
type scenarioDef struct {
	name    string
	about   string
	genFS   func(rng *rand.Rand) *Schedule
	genHTTP func(rng *rand.Rand) *HTTPSchedule
	run     func(ctx context.Context, env *stepEnv) error
}

var scenarios = []scenarioDef{
	{
		name:  "manifest",
		about: "sweep-manifest durability: crash mid-sweep, resume byte-identical",
		genFS: genManifestFaults,
		run:   runManifestScenario,
	},
	{
		name:  "spool",
		about: "service spool: acknowledged jobs survive faults, recover FIFO",
		genFS: genSpoolFaults,
		run:   runSpoolScenario,
	},
	{
		name:  "journal",
		about: "event-journal recording under FS faults: salvage + replay oracle",
		genFS: genJournalFaults,
		run:   runJournalScenario,
	},
	{
		name:    "client",
		about:   "service client vs HTTP faults: resets, 503 bursts, stalls, corruption",
		genHTTP: genClientFaults,
		run:     runClientScenario,
	},
}

// Scenarios lists the registered scenario names with descriptions, in
// campaign order.
func Scenarios() []string {
	out := make([]string, len(scenarios))
	for i, s := range scenarios {
		out[i] = fmt.Sprintf("%-10s %s", s.name, s.about)
	}
	return out
}

func findScenario(name string) *scenarioDef {
	for i := range scenarios {
		if scenarios[i].name == name {
			return &scenarios[i]
		}
	}
	return nil
}

// Campaign is a seeded chaos soak: Steps rounds over the selected
// scenarios, each round drawing fresh fault schedules from the
// campaign seed. Deterministic end to end — same seed, same faults,
// same outcome.
type Campaign struct {
	// Seed is the campaign master seed; every step's schedules and
	// workload derive from it.
	Seed int64
	// Steps is how many rounds to run (default 1).
	Steps int
	// Scenarios selects a subset by name (nil/empty = all).
	Scenarios []string
	// Log receives narration (nil = quiet).
	Log io.Writer
}

// Report summarizes a finished campaign.
type Report struct {
	Steps        int
	ScenarioRuns int
	FaultsFired  int
	// Violation is the (minimized) first invariant violation, nil when
	// the campaign came up clean.
	Violation *Violation
}

// subSeed derives a step+scenario seed from the master seed via
// splitmix64 — decorrelated streams, reproducible from the repro line.
func subSeed(seed int64, step, scen int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(step*256+scen+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Run executes the campaign. The first invariant violation stops the
// soak, is minimized (greedy clause dropping), and comes back in the
// report; infrastructure failures (not invariant findings) return err.
func (c *Campaign) Run(ctx context.Context) (*Report, error) {
	steps := c.Steps
	if steps <= 0 {
		steps = 1
	}
	logf := func(format string, args ...any) {
		if c.Log != nil {
			fmt.Fprintf(c.Log, "chaos: "+format+"\n", args...)
		}
	}
	selected := make([]*scenarioDef, 0, len(scenarios))
	if len(c.Scenarios) == 0 {
		for i := range scenarios {
			selected = append(selected, &scenarios[i])
		}
	} else {
		for _, name := range c.Scenarios {
			sd := findScenario(name)
			if sd == nil {
				return nil, fmt.Errorf("chaos: %w scenario %q", harness.ErrUnknown, name)
			}
			selected = append(selected, sd)
		}
	}
	rep := &Report{Steps: steps}
	for step := 0; step < steps; step++ {
		for si, sd := range selected {
			if err := ctx.Err(); err != nil {
				return rep, err
			}
			ss := subSeed(c.Seed, step, si)
			rng := rand.New(rand.NewSource(ss))
			var fsSched *Schedule
			var htSched *HTTPSchedule
			if sd.genFS != nil {
				fsSched = sd.genFS(rng)
			}
			if sd.genHTTP != nil {
				htSched = sd.genHTTP(rng)
			}
			logf("step %d scenario %s sub-seed %d fs=%q http=%q",
				step, sd.name, ss, fsSched.String(), htSched.String())
			rep.ScenarioRuns++
			v, fired, err := runScenarioOnce(ctx, sd, ss, fsSched, htSched, logf)
			rep.FaultsFired += fired
			if err != nil {
				return rep, fmt.Errorf("chaos: scenario %s (sub-seed %d): %w", sd.name, ss, err)
			}
			if v != nil {
				v.Step = step
				logf("violation found; minimizing fault schedule")
				v = minimize(ctx, sd, v, logf)
				rep.Violation = v
				return rep, nil
			}
		}
	}
	return rep, nil
}

// runScenarioOnce executes one scenario under explicit schedules.
// Returns a Violation for invariant findings, err for infrastructure
// failures, and how many faults fired either way.
func runScenarioOnce(ctx context.Context, sd *scenarioDef, seed int64, fsSched *Schedule, htSched *HTTPSchedule, logf func(string, ...any)) (*Violation, int, error) {
	dir, err := os.MkdirTemp("", "haccrg-chaos-*")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	if fsSched == nil {
		fsSched = &Schedule{}
	}
	if htSched == nil {
		htSched = &HTTPSchedule{}
	}
	env := &stepEnv{Seed: seed, Dir: dir, FS: fsSched, HTTP: htSched, logf: logf}
	rerr := sd.run(ctx, env)
	fired := len(env.fired())
	if rerr == nil {
		return nil, fired, nil
	}
	var ie *InvariantError
	if errors.As(rerr, &ie) {
		return &Violation{
			Scenario:  sd.name,
			SubSeed:   seed,
			Invariant: ie.Invariant,
			Detail:    ie.Detail,
			FSSched:   fsSched.String(),
			HTTPSched: htSched.String(),
			Fired:     env.fired(),
		}, fired, nil
	}
	return nil, fired, rerr
}

// minimize greedily drops fault clauses one at a time, keeping each
// drop that preserves the violation, until the schedule is 1-minimal —
// the smallest fault set that still breaks the invariant.
func minimize(ctx context.Context, sd *scenarioDef, v *Violation, logf func(string, ...any)) *Violation {
	current := v
	for {
		fsSched, _ := ParseSchedule(current.FSSched)
		htSched, _ := ParseHTTPSchedule(current.HTTPSched)
		improved := false
		for i := 0; i < len(fsSched.Clauses) && !improved; i++ {
			trial := &Schedule{Clauses: append(append([]*Clause{}, fsSched.Clauses[:i]...), fsSched.Clauses[i+1:]...)}
			if nv, _, err := runScenarioOnce(ctx, sd, current.SubSeed, trial, htSched, logf); err == nil && nv != nil && nv.Invariant == current.Invariant {
				nv.Step = current.Step
				current, improved = nv, true
			}
		}
		for i := 0; i < len(htSched.Clauses) && !improved; i++ {
			trial := &HTTPSchedule{Clauses: append(append([]*HTTPClause{}, htSched.Clauses[:i]...), htSched.Clauses[i+1:]...)}
			if nv, _, err := runScenarioOnce(ctx, sd, current.SubSeed, fsSched, trial, logf); err == nil && nv != nil && nv.Invariant == current.Invariant {
				nv.Step = current.Step
				current, improved = nv, true
			}
		}
		if !improved {
			return current
		}
	}
}

// Reproduce replays one scenario from a repro line's parameters and
// returns the violation it finds (nil = did not reproduce).
func Reproduce(ctx context.Context, scenario string, seed int64, fsSpec, httpSpec string, logw io.Writer) (*Violation, error) {
	sd := findScenario(scenario)
	if sd == nil {
		return nil, fmt.Errorf("chaos: %w scenario %q", harness.ErrUnknown, scenario)
	}
	fsSched, err := ParseSchedule(fsSpec)
	if err != nil {
		return nil, err
	}
	htSched, err := ParseHTTPSchedule(httpSpec)
	if err != nil {
		return nil, err
	}
	logf := func(format string, args ...any) {
		if logw != nil {
			fmt.Fprintf(logw, "chaos: "+format+"\n", args...)
		}
	}
	v, _, err := runScenarioOnce(ctx, sd, seed, fsSched, htSched, logf)
	return v, err
}

// ---------------------------------------------------------------------------
// Workload helpers

// chaosConfigs is the fast deterministic sweep the durability
// scenarios run: defective single-kernel benchmarks on the 4-SM test
// device, so every step finishes in milliseconds and produces known
// races for the verdict comparisons.
func chaosConfigs() []harness.RunConfig {
	cfg := gpu.TestConfig()
	mk := func(bench string) harness.RunConfig {
		return harness.RunConfig{
			Bench:     bench,
			Detector:  harness.DetSharedGlobal,
			GPU:       &cfg,
			MaxCycles: 2_000_000,
		}
	}
	return []harness.RunConfig{mk("baddiv"), mk("badfence")}
}

// summarize distills a RunResult to the serializable identity the
// byte-identical contracts are stated over.
func summarize(r *harness.RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s cycles=%d\n", r.Config.Bench, r.Config.Detector, r.Stats.Cycles)
	for _, race := range r.Races {
		fmt.Fprintf(&b, "%s count=%d\n", race, race.Count)
	}
	if r.Health != nil && r.Health.Degraded {
		fmt.Fprintf(&b, "degraded\n")
	}
	return b.String()
}

func summarizeAll(rs []*harness.RunResult) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(summarize(r))
	}
	return b.String()
}

// serialSweep is the sweep every chaos scenario runs: on one worker,
// so manifest appends hit the fault schedule's per-clause counters in
// one reproducible order.
func serialSweep(ctx context.Context, m *harness.Manifest) harness.Sweep {
	return harness.Sweep{Ctx: ctx, Manifest: m, Workers: 1}
}

// referenceSummaries runs the chaos sweep fault-free, no manifest —
// the ground truth the invariants compare against.
func referenceSummaries(ctx context.Context) (string, error) {
	rs, err := serialSweep(ctx, nil).Run(chaosConfigs())
	if err != nil {
		return "", fmt.Errorf("fault-free reference sweep failed: %w", err)
	}
	return summarizeAll(rs), nil
}

func quietLog() *log.Logger { return log.New(io.Discard, "", 0) }

// ---------------------------------------------------------------------------
// Scenario: manifest

// genManifestFaults draws 1-2 clauses aimed at the sweep manifest.
func genManifestFaults(rng *rand.Rand) *Schedule {
	menu := []func() *Clause{
		func() *Clause { return &Clause{Kind: KindSyncErr, Path: "manifest", Nth: 1 + rng.Intn(3)} },
		func() *Clause { return &Clause{Kind: KindShortWrite, Path: "manifest", Nth: 1 + rng.Intn(3)} },
		func() *Clause { return &Clause{Kind: KindENOSPC, Path: "manifest", After: int64(64 + rng.Intn(4096))} },
		func() *Clause { return &Clause{Kind: KindCrash, Op: "sync", Path: "manifest", Nth: 1 + rng.Intn(3)} },
		func() *Clause { return &Clause{Kind: KindCrash, Op: "write", Path: "manifest", Nth: 1 + rng.Intn(4)} },
	}
	s := &Schedule{}
	for _, i := range rng.Perm(len(menu))[:1+rng.Intn(2)] {
		s.Clauses = append(s.Clauses, menu[i]())
	}
	return s
}

// runManifestScenario: a sweep checkpoints through a manifest on a
// faulty filesystem; whatever happens, reopening the manifest on a
// healthy filesystem and finishing the sweep must produce the
// fault-free results byte for byte — and a sweep that claimed success
// under faults must have actually persisted what it claimed.
func runManifestScenario(ctx context.Context, env *stepEnv) error {
	want, err := referenceSummaries(ctx)
	if err != nil {
		return err
	}
	cfgs := chaosConfigs()
	path := filepath.Join(env.Dir, "sweep.manifest")

	// Phase A: the faulty run. Any error is acceptable — it is loud.
	ffs := env.faultFS()
	claimedOK := false
	m, _, err := harness.OpenManifestFS(ffs, path, true)
	if err == nil {
		rs, serr := serialSweep(ctx, m).Run(cfgs)
		m.Close()
		if serr == nil {
			claimedOK = true
			if got := summarizeAll(rs); got != want {
				return &InvariantError{Invariant: InvNeverSilent,
					Detail: fmt.Sprintf("faulty sweep reported success with divergent results\n--- want\n%s--- got\n%s", want, got)}
			}
		} else {
			env.logf("manifest phase A failed loudly (ok): %v", serr)
		}
	} else {
		env.logf("manifest open failed loudly (ok): %v", err)
	}

	// The never-silent check: a success claim must be backed by a
	// healthy manifest holding every result.
	if claimedOK {
		m2, salvage, err := harness.OpenManifestFS(nil, path, true)
		if err != nil {
			return &InvariantError{Invariant: InvNeverSilent,
				Detail: fmt.Sprintf("sweep claimed success but manifest unreadable: %v", err)}
		}
		if salvage.Truncated {
			m2.Close()
			return &InvariantError{Invariant: InvNeverSilent,
				Detail: fmt.Sprintf("sweep claimed success but manifest was torn (%d bytes salvaged)", salvage.Bytes)}
		}
		for _, rc := range cfgs {
			if _, ok := serialSweep(ctx, m2).Lookup(rc); !ok {
				m2.Close()
				return &InvariantError{Invariant: InvNeverSilent,
					Detail: fmt.Sprintf("sweep claimed success but manifest misses %s/%s", rc.Bench, rc.Detector)}
			}
		}
		m2.Close()
	}

	// Phase B: recovery on a healthy filesystem. The salvaged prefix
	// plus re-simulation must land on the fault-free results exactly.
	m3, salvage, err := harness.OpenManifestFS(nil, path, true)
	if err != nil {
		return &InvariantError{Invariant: InvCrashResume,
			Detail: fmt.Sprintf("recovery open failed: %v", err)}
	}
	defer m3.Close()
	env.logf("manifest recovery: %d checkpointed run(s) salvaged", salvage.Records)
	rs, err := serialSweep(ctx, m3).Run(cfgs)
	if err != nil {
		return &InvariantError{Invariant: InvCrashResume,
			Detail: fmt.Sprintf("recovery sweep failed: %v", err)}
	}
	if got := summarizeAll(rs); got != want {
		return &InvariantError{Invariant: InvCrashResume,
			Detail: fmt.Sprintf("resumed results diverge from fault-free run\n--- want\n%s--- got\n%s", want, got)}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Scenario: spool

// genSpoolFaults draws clauses aimed at the job spool's admission
// writes. Torn renames are deliberately absent here: a silently-torn
// rename is filesystem corruption no spool discipline can survive, and
// the integrity-checked stores (journal, manifest) are where that
// clause earns its keep.
func genSpoolFaults(rng *rand.Rand) *Schedule {
	menu := []func() *Clause{
		func() *Clause { return &Clause{Kind: KindSyncErr, Path: ".spec.json", Nth: 1 + rng.Intn(4)} },
		func() *Clause { return &Clause{Kind: KindShortWrite, Path: ".spec.json", Nth: 1 + rng.Intn(4)} },
		func() *Clause { return &Clause{Kind: KindENOSPC, Path: "jobs", After: int64(128 + rng.Intn(2048))} },
		func() *Clause { return &Clause{Kind: KindCrash, Op: "sync", Path: ".spec.json", Nth: 1 + rng.Intn(4)} },
		func() *Clause {
			return &Clause{Kind: KindCrash, Op: "rename", Path: ".spec.json", Nth: 1 + rng.Intn(4)}
		},
	}
	s := &Schedule{}
	for _, i := range rng.Perm(len(menu))[:1+rng.Intn(2)] {
		s.Clauses = append(s.Clauses, menu[i]())
	}
	return s
}

// runSpoolScenario: jobs are submitted to a daemon whose spool sits on
// a faulty filesystem. Whatever fails, every acknowledged admission
// must be re-admitted by a restarted daemon, in submission order.
func runSpoolScenario(ctx context.Context, env *stepEnv) error {
	tenant := service.TenantConfig{Rate: 1e6, Burst: 1 << 20, MaxConcurrent: 1 << 20}
	srv, err := service.New(service.Config{
		DataDir: env.Dir, FS: env.faultFS(),
		Tenant: tenant, SmallGPU: true, Log: quietLog(),
	})
	var acked []string
	if err != nil {
		// The spool could not even open — loud, nothing acknowledged.
		env.logf("spool daemon 1 failed to start loudly (ok): %v", err)
	} else {
		// Workers are deliberately not started: every accepted job stays
		// queued, so recovery must re-admit all of them.
		spec := &service.JobSpec{Kind: service.JobBench, Benches: []string{"baddiv"}, SmallGPU: true}
		for i := 0; i < 5; i++ {
			id, _, err := srv.Submit("chaos-tenant", spec)
			if err != nil {
				env.logf("submit %d rejected loudly (ok): %v", i, err)
				continue
			}
			acked = append(acked, id)
		}
	}

	// Restart on a healthy filesystem.
	srv2, err := service.New(service.Config{
		DataDir: env.Dir, Tenant: tenant, SmallGPU: true, Log: quietLog(),
	})
	if err != nil {
		return &InvariantError{Invariant: InvJobsNeverDropped,
			Detail: fmt.Sprintf("recovery failed to open the spool: %v", err)}
	}
	rec := srv2.RecoveredOrder()
	if len(rec) != len(acked) {
		return &InvariantError{Invariant: InvJobsNeverDropped,
			Detail: fmt.Sprintf("acknowledged %d job(s) %v, recovered %d %v", len(acked), acked, len(rec), rec)}
	}
	for i := range acked {
		if rec[i] != acked[i] {
			return &InvariantError{Invariant: InvJobsNeverDropped,
				Detail: fmt.Sprintf("recovery order diverges from submission order at %d: submitted %v, recovered %v", i, acked, rec)}
		}
	}
	for _, id := range acked {
		st, ok := srv2.Job(id)
		if !ok || st.State != service.StateQueued {
			return &InvariantError{Invariant: InvJobsNeverDropped,
				Detail: fmt.Sprintf("job %s not queued after recovery (found=%v state=%q)", id, ok, st.State)}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Scenario: journal

// genJournalFaults draws clauses aimed at the event-journal file —
// including torn renames' moral equivalent for append-only files,
// short writes, which the CRC framing must catch at replay.
func genJournalFaults(rng *rand.Rand) *Schedule {
	menu := []func() *Clause{
		func() *Clause { return &Clause{Kind: KindSyncErr, Path: ".journal", Nth: 1} },
		func() *Clause { return &Clause{Kind: KindShortWrite, Path: ".journal", Nth: 1 + rng.Intn(40)} },
		func() *Clause {
			return &Clause{Kind: KindENOSPC, Path: ".journal", After: int64(256 + rng.Intn(1<<15))}
		},
		func() *Clause { return &Clause{Kind: KindCrash, Op: "write", Path: ".journal", Nth: 1 + rng.Intn(40)} },
		func() *Clause { return &Clause{Kind: KindCrash, Op: "sync", Path: ".journal", Nth: 1} },
	}
	s := &Schedule{}
	for _, i := range rng.Perm(len(menu))[:1+rng.Intn(2)] {
		s.Clauses = append(s.Clauses, menu[i]())
	}
	return s
}

// runJournalScenario: a run records its event journal on a faulty
// filesystem. A recording that claims success must replay to the live
// verdict byte for byte; a failed recording must fail loudly, and its
// salvaged prefix must still replay cleanly (matching any verdict that
// survived whole).
func runJournalScenario(ctx context.Context, env *stepEnv) error {
	cfg := gpu.TestConfig()
	rc := harness.RunConfig{
		Bench:    "baddiv",
		Detector: harness.DetSharedGlobal,
		GPU:      &cfg, MaxCycles: 2_000_000,
	}
	path := filepath.Join(env.Dir, "run.journal")
	fw, err := journal.CreateFile(env.faultFS(), path)
	if err != nil {
		env.logf("journal create failed loudly (ok): %v", err)
		return nil
	}
	_, runErr := harness.ExecContext(ctx, rc, harness.ExecOptions{Record: fw})
	closeErr := fw.Close()
	recordedOK := runErr == nil && closeErr == nil
	if !recordedOK {
		env.logf("recording failed loudly (ok): run=%v close=%v", runErr, closeErr)
	}

	// Replay whatever landed on disk, on a healthy filesystem.
	det, err := harness.DetectorFor(rc)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		if recordedOK {
			return &InvariantError{Invariant: InvNeverSilent,
				Detail: fmt.Sprintf("recording claimed success but journal unreadable: %v", err)}
		}
		return nil
	}
	defer f.Close()
	res, err := journal.Replay(f, det)
	if err != nil {
		if recordedOK {
			return &InvariantError{Invariant: InvReplayEqualsLive,
				Detail: fmt.Sprintf("recording claimed success but replay failed: %v", err)}
		}
		// A crashed recording may leave less than a header; that is a
		// loud, documented outcome, not a violation.
		env.logf("salvage replay of failed recording errored (ok for sub-header files): %v", err)
		return nil
	}
	if recordedOK {
		if res.Salvage.Truncated {
			return &InvariantError{Invariant: InvNeverSilent,
				Detail: fmt.Sprintf("recording claimed success but journal was torn after %d record(s): %s", res.Salvage.Records, res.Salvage.Reason)}
		}
		if res.Recorded == nil {
			return &InvariantError{Invariant: InvReplayEqualsLive,
				Detail: "recording claimed success but no verdict record survived"}
		}
	}
	// Single-kernel workload: any surviving verdict record implies all
	// the kernel's events precede it intact, so the oracle must hold
	// even for salvaged prefixes.
	if res.Recorded != nil && !res.Match {
		return &InvariantError{Invariant: InvReplayEqualsLive,
			Detail: fmt.Sprintf("replayed verdict diverges from recorded\n--- recorded\n%s\n--- replayed\n%s",
				strings.Join(res.Recorded, "\n"), strings.Join(res.Replayed, "\n"))}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Scenario: client

// genClientFaults draws 1-3 HTTP fault clauses.
func genClientFaults(rng *rand.Rand) *HTTPSchedule {
	menu := []func() *HTTPClause{
		func() *HTTPClause { return &HTTPClause{Kind: KindReset, Nth: 1 + rng.Intn(4)} },
		func() *HTTPClause {
			return &HTTPClause{Kind: KindBurst503, From: 1 + rng.Intn(3), Count: 1 + rng.Intn(3)}
		},
		func() *HTTPClause { return &HTTPClause{Kind: KindStall, Path: "/v1/jobs", Nth: 1 + rng.Intn(3)} },
		func() *HTTPClause { return &HTTPClause{Kind: KindCorrupt, Nth: 1 + rng.Intn(4)} },
	}
	s := &HTTPSchedule{}
	for _, i := range rng.Perm(len(menu))[:1+rng.Intn(3)] {
		s.Clauses = append(s.Clauses, menu[i]())
	}
	return s
}

// runClientScenario: a client submits jobs through a fault-injecting
// transport. Every submission the client believes succeeded must
// exist on the daemon (no acknowledged job lost in transit), every
// failure must surface as an error within the call's deadline, and
// the daemon must stay healthy throughout.
func runClientScenario(ctx context.Context, env *stepEnv) error {
	tenant := service.TenantConfig{Rate: 1e6, Burst: 1 << 20, MaxConcurrent: 1 << 20}
	srv, err := service.New(service.Config{
		DataDir: env.Dir, Tenant: tenant, SmallGPU: true, Log: quietLog(),
	})
	if err != nil {
		return err
	}
	srv.Start()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	cli := &service.Client{
		BaseURL: hts.URL,
		Tenant:  "chaos-tenant",
		HTTPClient: &http.Client{
			Transport: env.transport(),
			Timeout:   2 * time.Second, // bounds stalled bodies
		},
		MaxAttempts: 4,
		BaseBackoff: time.Millisecond,
	}
	spec := &service.JobSpec{Kind: service.JobAnalyze, Benches: []string{"baddiv"}, SmallGPU: true}
	var acked []string
	for i := 0; i < 6; i++ {
		callCtx, cancel := context.WithTimeout(ctx, 15*time.Second)
		id, err := cli.Submit(callCtx, spec)
		promptly := callCtx.Err() == nil
		cancel()
		if err != nil {
			if !promptly {
				return &InvariantError{Invariant: InvNeverSilent,
					Detail: fmt.Sprintf("client call %d ran past its deadline before failing: %v", i, err)}
			}
			env.logf("submit %d failed loudly (ok): %v", i, err)
			continue
		}
		if !promptly {
			return &InvariantError{Invariant: InvNeverSilent,
				Detail: fmt.Sprintf("client call %d ran past its deadline", i)}
		}
		acked = append(acked, id)
	}
	for _, id := range acked {
		if _, ok := srv.Job(id); !ok {
			return &InvariantError{Invariant: InvJobsNeverDropped,
				Detail: fmt.Sprintf("client holds acknowledgement for job %s but the daemon does not know it", id)}
		}
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv.Drain(drainCtx)
	// Post-drain: acknowledged jobs must still be accounted for — done,
	// failed, or resumable — never vanished.
	for _, id := range acked {
		if _, ok := srv.Job(id); !ok {
			return &InvariantError{Invariant: InvJobsNeverDropped,
				Detail: fmt.Sprintf("job %s vanished during drain", id)}
		}
	}
	// And the daemon's own books must balance: accepted = terminal +
	// interrupted + still-queued (statsz is the operator's only window).
	st := srv.Stats()
	var b []byte
	b, _ = json.Marshal(st.JobsStates)
	env.logf("client scenario: accepted=%d states=%s", st.Accepted, b)
	return nil
}
