package service

import (
	"context"
	"errors"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"haccrg/internal/journal"
)

func testLogger(t *testing.T) *log.Logger {
	t.Helper()
	return log.New(io.Discard, "", 0)
}

// openTenants is a tenant config that never rejects, for tests aimed
// at other gates.
var openTenants = TenantConfig{Rate: 1e6, Burst: 1000, MaxConcurrent: 0}

func newTestServer(t *testing.T, mod func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		DataDir:  t.TempDir(),
		SmallGPU: true,
		Workers:  1,
		Tenant:   openTenants,
		Log:      testLogger(t),
	}
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// expiredCtx is a context whose deadline has already passed — the
// zero-length drain window.
func expiredCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t.Cleanup(cancel)
	return ctx
}

func analyzeSpec() *JobSpec {
	return &JobSpec{Kind: JobAnalyze, Benches: []string{"psum"}}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, nil)
	defer s.Drain(expiredCtx(t))
	cases := []*JobSpec{
		{Kind: "bogus"},
		{Kind: JobBench},
		{Kind: JobBench, Benches: []string{"no-such-bench"}},
		{Kind: JobAnalyze, Benches: []string{"psum"}, TimeoutMS: -1},
		{Kind: JobBench, Benches: []string{"psum"}, Degradation: "explode"},
		// Each of these used to be spooled and charged, then failed (or
		// ran under a silently different setting) in the worker.
		{Kind: JobBench, Benches: []string{"psum"}, Detector: "bogus"},
		{Kind: JobBench, Benches: []string{"psum"}, FaultPlan: "nonsense:::"},
		{Kind: JobBench, Benches: []string{"psum"}, SharedGranularity: 3},
		{Kind: JobBench, Benches: []string{"psum"}, Detector: "off", StaticFilter: true},
		{Kind: JobBench, Benches: []string{"psum"}, SharedGranularity: -5},
		{Kind: JobAnalyze, Benches: []string{"psum"}, SharedGranularity: -5},
		{Kind: JobBench, Benches: []string{"reduce"}, Inject: []string{"reduce.fenc0"}},
		{Kind: JobBench, Benches: []string{"psum", "scan"}, Inject: []string{"reduce.fence0"}},
		{Kind: JobReplay, Detector: "bogus"},
	}
	for _, sp := range cases {
		var err error
		if sp.Kind == JobReplay {
			_, _, err = s.SubmitReplay("t", sp, strings.NewReader("journal"))
		} else {
			_, _, err = s.Submit("t", sp)
		}
		if err == nil {
			t.Errorf("Submit(%+v) accepted, want validation error", sp)
		}
	}
	if n := len(s.Jobs("")); n != 0 {
		t.Fatalf("rejected specs left %d jobs behind", n)
	}
	if spooled, _ := filepath.Glob(filepath.Join(s.spool.dir, "jobs", "*")); len(spooled) != 0 {
		t.Fatalf("rejected specs left spool entries %v", spooled)
	}
	if n := s.Stats().Tenants["t"].Admitted; n != 0 {
		t.Fatalf("rejected specs charged the tenant %d admissions", n)
	}
}

// TestMultiBenchInjectRouting: a multi-benchmark job's injection IDs
// reach only the benchmarks that declare them, and a single-benchmark
// job keeps its list as given (its manifest keys do not move).
func TestMultiBenchInjectRouting(t *testing.T) {
	sp := &JobSpec{Kind: JobBench, Benches: []string{"psum", "scan", "reduce"},
		Inject: []string{"reduce.fence0", "psum.fence0", "reduce.bar0"}}
	runs, err := sp.RunConfigs(true)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"psum": "psum.fence0", "scan": "", "reduce": "reduce.fence0 reduce.bar0"}
	for _, rc := range runs {
		if got := strings.Join(rc.Inject, " "); got != want[rc.Bench] {
			t.Errorf("%s runs with injections %q, want %q", rc.Bench, got, want[rc.Bench])
		}
		if rc.Bench == "scan" && rc.Inject != nil {
			t.Errorf("scan's injection list is %#v, want nil (the key of a run without injections)", rc.Inject)
		}
	}
	single := &JobSpec{Kind: JobBench, Benches: []string{"reduce"}, Inject: []string{"reduce.bar0", "reduce.fence0"}}
	runs, err = single.RunConfigs(true)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(runs[0].Inject, " "); got != "reduce.bar0 reduce.fence0" {
		t.Errorf("single-bench injections %q, want them as given", got)
	}
}

func TestQueueSaturationShedsLoad(t *testing.T) {
	// Workers never started: everything submitted stays queued, so the
	// third submission must hit the bounded queue, be refused with a
	// retry hint, and leave no trace in the spool.
	s := newTestServer(t, func(c *Config) { c.QueueDepth = 2 })
	for i := 0; i < 2; i++ {
		if _, _, err := s.Submit("t", analyzeSpec()); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	_, retry, err := s.Submit("t", analyzeSpec())
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit on full queue: err = %v, want ErrQueueFull", err)
	}
	if retry <= 0 {
		t.Fatalf("Submit on full queue: retry hint = %v, want > 0", retry)
	}
	specs, _ := filepath.Glob(filepath.Join(s.spool.dir, "jobs", "*.spec.json"))
	if len(specs) != 2 {
		t.Fatalf("spool holds %d specs after shed submission, want 2", len(specs))
	}
	st := s.Stats()
	if st.Rejected.QueueFull != 1 {
		t.Fatalf("Stats.Rejected.QueueFull = %d, want 1", st.Rejected.QueueFull)
	}
	// The shed admission was refunded: the tenant's bucket is not
	// charged for work the daemon refused.
	if got := st.Tenants["t"].Admitted; got != 2 {
		t.Fatalf("tenant admitted = %d after refund, want 2", got)
	}
	rep := s.Drain(expiredCtx(t))
	if rep.Requeued != 2 {
		t.Fatalf("Drain.Requeued = %d, want 2 (accepted jobs are never dropped)", rep.Requeued)
	}
}

// TestJobsNewestFirst: the job list is ordered newest first by enqueue
// time, ties by ID, the same on every call.
func TestJobsNewestFirst(t *testing.T) {
	clock := time.Unix(1000, 0)
	s := newTestServer(t, func(c *Config) { c.now = func() time.Time { return clock } })
	defer s.Drain(expiredCtx(t))
	var ids []string
	for i := 0; i < 6; i++ {
		if i != 5 { // the last two jobs share an enqueue time
			clock = clock.Add(time.Second)
		}
		id, _, err := s.Submit("t", analyzeSpec())
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	want := []string{min(ids[4], ids[5]), max(ids[4], ids[5]), ids[3], ids[2], ids[1], ids[0]}
	for call := 0; call < 20; call++ {
		var got []string
		for _, st := range s.Jobs("t") {
			got = append(got, st.ID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("call %d listed %v, want %v", call, got, want)
		}
	}
}

func TestTenantQuotaExhaustion(t *testing.T) {
	clock := time.Unix(1000, 0)
	ts := newTenants(TenantConfig{Rate: 1, Burst: 2, MaxConcurrent: 10}, func() time.Time { return clock })
	for i := 0; i < 2; i++ {
		if _, err := ts.admit("a"); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	retry, err := ts.admit("a")
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("admit past burst: err = %v, want ErrQuota", err)
	}
	if retry < time.Second {
		t.Fatalf("quota retry hint = %v, want >= 1s", retry)
	}
	// Another tenant is unaffected.
	if _, err := ts.admit("b"); err != nil {
		t.Fatalf("tenant b: %v", err)
	}
	// Time refills the bucket.
	clock = clock.Add(3 * time.Second)
	if _, err := ts.admit("a"); err != nil {
		t.Fatalf("admit after refill: %v", err)
	}
}

func TestTenantConcurrencyCap(t *testing.T) {
	ts := newTenants(TenantConfig{Rate: 0, MaxConcurrent: 2}, nil)
	for i := 0; i < 2; i++ {
		if _, err := ts.admit("a"); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	if _, err := ts.admit("a"); !errors.Is(err, ErrConcurrency) {
		t.Fatalf("admit past cap: err = %v, want ErrConcurrency", err)
	}
	ts.release("a")
	if _, err := ts.admit("a"); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
}

func TestAnalyzeJobAndReportCache(t *testing.T) {
	s := newTestServer(t, nil)
	s.Start()
	defer s.Drain(expiredCtx(t))

	run := func() JobStatus {
		id, _, err := s.Submit("t", analyzeSpec())
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		st, err := s.Wait(ctx, id)
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if st.State != StateDone {
			t.Fatalf("job state %s (%s), want done", st.State, st.Error)
		}
		return st
	}
	first, second := run(), run()
	if first.Analyze == nil || second.Analyze == nil {
		t.Fatal("analyze summaries missing")
	}
	if first.CacheHit {
		t.Fatal("first analysis claims a cache hit")
	}
	if !second.CacheHit {
		t.Fatal("second identical analysis missed the cache")
	}
	if first.Analyze.ProgramHash != second.Analyze.ProgramHash {
		t.Fatalf("program hashes differ: %s vs %s", first.Analyze.ProgramHash, second.Analyze.ProgramHash)
	}
	if string(first.Analyze.Report) != string(second.Analyze.Report) {
		t.Fatal("cached report differs from computed report")
	}
	if st := s.Stats(); st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", st.Cache)
	}
}

func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, nil)
	// A job with a nil spec crashes the executor; the worker must
	// survive and report the crash as a structured failure.
	j := &job{done: make(chan struct{}), status: JobStatus{ID: "jpanic", Tenant: "t"}}
	s.mu.Lock()
	s.jobs["jpanic"] = j
	s.outstanding++
	s.mu.Unlock()
	s.runJob(j)
	st := j.snapshot()
	if st.State != StateFailed {
		t.Fatalf("panicked job state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "panicked") {
		t.Fatalf("panicked job error = %q, want a panic report", st.Error)
	}
	if got := s.Stats().Panicked; got != 1 {
		t.Fatalf("Stats.Panicked = %d, want 1", got)
	}
	select {
	case <-j.done:
	default:
		t.Fatal("panicked job's done gate never closed")
	}
}

func TestJobDeadlineClamp(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.DefaultDeadline = time.Minute
		c.MaxDeadline = 2 * time.Minute
	})
	defer s.Drain(expiredCtx(t))
	if d := s.jobDeadline(&JobSpec{}); d != time.Minute {
		t.Fatalf("default deadline = %v, want 1m", d)
	}
	if d := s.jobDeadline(&JobSpec{TimeoutMS: 30_000}); d != 30*time.Second {
		t.Fatalf("requested deadline = %v, want 30s", d)
	}
	if d := s.jobDeadline(&JobSpec{TimeoutMS: int64(time.Hour / time.Millisecond)}); d != 2*time.Minute {
		t.Fatalf("oversized deadline = %v, want clamped to 2m", d)
	}
}

// TestDrainCheckpointResume is the core robustness invariant: a drain
// that cuts a bench job mid-sweep leaves resumable state, and a
// restarted daemon finishes the job with findings byte-identical to an
// uninterrupted run.
func TestDrainCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	// hist finishes first and lands in the job's manifest; mcarlo is
	// still simulating when the drain cancels it.
	spec := &JobSpec{Kind: JobBench, Benches: []string{"hist", "mcarlo"}, Scale: 8}

	// Control: the same spec run to completion without interruption.
	control := newTestServer(t, func(c *Config) { c.SmallGPU = false })
	control.Start()
	cid, _, err := control.Submit("t", spec)
	if err != nil {
		t.Fatalf("control Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	want, err := control.Wait(ctx, cid)
	if err != nil || want.State != StateDone {
		t.Fatalf("control job: state %s, err %v (%s)", want.State, err, want.Error)
	}
	control.Drain(expiredCtx(t))

	dir := t.TempDir()
	s, err := New(Config{DataDir: dir, Workers: 1, Tenant: openTenants, Log: testLogger(t)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	id, _, err := s.Submit("t", spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Wait for the first completed run to be checkpointed — the
	// journal header alone does not count, only an intact record —
	// then slam the drain window shut while the second is mid-flight.
	manifest := s.spool.manifestPath(id)
	for deadline := time.Now().Add(time.Minute); ; {
		if manifestRecords(manifest) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("manifest never got its first checkpoint")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep := s.Drain(expiredCtx(t))
	st, ok := s.Job(id)
	if !ok {
		t.Fatal("job vanished during drain")
	}
	if st.State != StateInterrupted {
		t.Fatalf("drained job state = %s (%s), want interrupted", st.State, st.Error)
	}
	if rep.Interrupted != 1 {
		t.Fatalf("DrainReport.Interrupted = %d, want 1", rep.Interrupted)
	}

	// Restart over the same data directory: the job is recovered,
	// resumed from its manifest, and completed.
	s2, err := New(Config{DataDir: dir, Workers: 1, Tenant: openTenants, Log: testLogger(t)})
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	s2.Start()
	defer s2.Drain(expiredCtx(t))
	got, err := s2.Wait(ctx, id)
	if err != nil {
		t.Fatalf("resumed Wait: %v", err)
	}
	if got.State != StateDone {
		t.Fatalf("resumed job state = %s (%s), want done", got.State, got.Error)
	}

	if len(got.Runs) != len(want.Runs) {
		t.Fatalf("resumed job has %d runs, control %d", len(got.Runs), len(want.Runs))
	}
	resumedAny := false
	for i := range got.Runs {
		g, w := got.Runs[i], want.Runs[i]
		if g.Bench != w.Bench || g.Detector != w.Detector || g.Cycles != w.Cycles {
			t.Errorf("run %d: got %s/%s %d cycles, control %s/%s %d cycles",
				i, g.Bench, g.Detector, g.Cycles, w.Bench, w.Detector, w.Cycles)
		}
		if strings.Join(g.Races, "\n") != strings.Join(w.Races, "\n") {
			t.Errorf("run %d (%s): races differ from uninterrupted control\n got: %v\nwant: %v",
				i, g.Bench, g.Races, w.Races)
		}
		resumedAny = resumedAny || g.Resumed
	}
	if !resumedAny {
		t.Error("no run was served from the checkpoint manifest")
	}
}

// manifestRecords counts the intact framed records in a (possibly
// still-growing) manifest file, without disturbing it.
func manifestRecords(path string) int {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	r, err := journal.NewReader(f)
	if err != nil {
		return 0
	}
	n := 0
	for {
		if _, err := r.Next(); err != nil {
			return n
		}
		n++
	}
}

func TestRecoverRequeuesSpooledJobs(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{DataDir: dir, SmallGPU: true, Workers: 1, Tenant: openTenants, Log: testLogger(t)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Accept a job but never start workers, then drain: the job stays
	// spooled.
	id, _, err := s.Submit("t", analyzeSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if rep := s.Drain(expiredCtx(t)); rep.Requeued != 1 {
		t.Fatalf("Drain.Requeued = %d, want 1", rep.Requeued)
	}

	s2, err := New(Config{DataDir: dir, SmallGPU: true, Workers: 1, Tenant: openTenants, Log: testLogger(t)})
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	s2.Start()
	defer s2.Drain(expiredCtx(t))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := s2.Wait(ctx, id)
	if err != nil || st.State != StateDone {
		t.Fatalf("recovered job: state %s, err %v (%s)", st.State, err, st.Error)
	}
	if st.Analyze == nil || st.Analyze.ProgramHash == "" {
		t.Fatal("recovered analyze job produced no report")
	}
}

// TestRecoverKeepsEnqueueTimes: jobs re-admitted from the spool keep
// their enqueue times, so GET /v1/jobs lists them newest first after a
// restart as before it.
func TestRecoverKeepsEnqueueTimes(t *testing.T) {
	dir := t.TempDir()
	clock := time.Unix(1000, 0)
	newServer := func() *Server {
		s, err := New(Config{DataDir: dir, SmallGPU: true, Workers: 1, Tenant: openTenants, Log: testLogger(t),
			now: func() time.Time { return clock }})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return s
	}
	s := newServer()
	enqueued := map[string]time.Time{}
	for i := 0; i < 4; i++ {
		clock = clock.Add(time.Second)
		id, _, err := s.Submit("t", analyzeSpec())
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		enqueued[id] = clock
	}
	ids := func(s *Server) []string {
		var out []string
		for _, st := range s.Jobs("t") {
			out = append(out, st.ID)
		}
		return out
	}
	before := ids(s)
	if rep := s.Drain(expiredCtx(t)); rep.Requeued != 4 {
		t.Fatalf("Drain.Requeued = %d, want 4", rep.Requeued)
	}

	s2 := newServer()
	defer s2.Drain(expiredCtx(t))
	for id, at := range enqueued {
		st, ok := s2.Job(id)
		if !ok {
			t.Fatalf("job %s lost in the restart", id)
		}
		if !st.EnqueuedAt.Equal(at) {
			t.Errorf("job %s: enqueued_at %v after the restart, want %v", id, st.EnqueuedAt, at)
		}
	}
	if after := ids(s2); !slices.Equal(after, before) {
		t.Errorf("Jobs listed %v after the restart, %v before it", after, before)
	}
}

// TestRecoverSpecWithRemovedEngineFields: a spec spooled by an earlier
// version may carry detect_parallel, detect_parallel_shared and
// sentinel_every, which named detector engines this version no longer
// has. Recovery ignores them, and the job runs to the findings of the
// same spec without them.
func TestRecoverSpecWithRemovedEngineFields(t *testing.T) {
	dir := t.TempDir()
	newServer := func() *Server {
		s, err := New(Config{DataDir: dir, SmallGPU: true, Workers: 1, Tenant: openTenants, Log: testLogger(t)})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return s
	}
	s := newServer()
	spec := &JobSpec{Kind: JobBench, Benches: []string{"scan"}}
	id, _, err := s.Submit("t", spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if rep := s.Drain(expiredCtx(t)); rep.Requeued != 1 {
		t.Fatalf("Drain.Requeued = %d, want 1", rep.Requeued)
	}

	// Rewrite the spooled spec in the earlier encoding.
	path := s.spool.specPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(data), `"kind":"bench"`,
		`"kind":"bench","detect_parallel":true,"detect_parallel_shared":true,"sentinel_every":2`, 1)
	if old == string(data) {
		t.Fatalf("spooled spec has an unexpected layout: %s", data)
	}
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newServer()
	s2.Start()
	defer s2.Drain(expiredCtx(t))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := s2.Wait(ctx, id)
	if err != nil || st.State != StateDone {
		t.Fatalf("recovered job: state %s, err %v (%s)", st.State, err, st.Error)
	}
	fresh, err := execBench(ctx, spec, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Runs) != 1 || strings.Join(st.Runs[0].Races, "\n") != strings.Join(fresh[0].Races, "\n") ||
		st.Runs[0].Cycles != fresh[0].Cycles {
		t.Fatalf("recovered run %+v differs from a fresh run %+v", st.Runs, fresh)
	}
}
