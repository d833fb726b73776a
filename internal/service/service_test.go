package service

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"haccrg/internal/gpu"
	"haccrg/internal/harness"
	"haccrg/internal/vfs"
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
		{Kind: JobBench, Benches: []string{"psum"}, RunConfig: harness.RunConfig{Degradation: "explode"}},
		// Each of these used to be spooled and charged, then failed (or
		// ran under a silently different setting) in the worker.
		{Kind: JobBench, Benches: []string{"psum"}, RunConfig: harness.RunConfig{Detector: "bogus"}},
		{Kind: JobBench, Benches: []string{"psum"}, RunConfig: harness.RunConfig{FaultPlan: "nonsense:::"}},
		{Kind: JobBench, Benches: []string{"psum"}, RunConfig: harness.RunConfig{SharedGranularity: 3}},
		{Kind: JobBench, Benches: []string{"psum"}, RunConfig: harness.RunConfig{Detector: "off", StaticFilter: true}},
		{Kind: JobBench, Benches: []string{"psum"}, RunConfig: harness.RunConfig{SharedGranularity: -5}},
		{Kind: JobAnalyze, Benches: []string{"psum"}, RunConfig: harness.RunConfig{SharedGranularity: -5}},
		{Kind: JobBench, Benches: []string{"reduce"}, RunConfig: harness.RunConfig{Inject: []string{"reduce.fenc0"}}},
		{Kind: JobBench, Benches: []string{"psum", "scan"}, RunConfig: harness.RunConfig{Inject: []string{"reduce.fence0"}}},
		{Kind: JobBench, Benches: []string{"psum"}, RunConfig: harness.RunConfig{Scale: -1}},
		{Kind: JobAnalyze, Benches: []string{"psum"}, RunConfig: harness.RunConfig{MaxCycles: -5}},
		// What the spool cannot keep: the spooled spec would describe
		// other runs than the admitted one.
		{Kind: JobBench, Benches: []string{"psum"}, RunConfig: harness.RunConfig{GPU: &gpu.Config{}}},
		{Kind: JobBench, Benches: []string{"psum"}, RunConfig: harness.RunConfig{Timeout: time.Second}},
		{Kind: JobReplay, RunConfig: harness.RunConfig{Detector: "bogus"}},
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

// TestSubmitReplayOversizedUpload: an upload that http.MaxBytesReader
// cuts off mid-copy fails the submission with the *http.MaxBytesError
// still reachable (the HTTP layer answers 413 for it), names the spool
// step, and leaves nothing in the spool or charged to the tenant.
func TestSubmitReplayOversizedUpload(t *testing.T) {
	s := newTestServer(t, nil)
	defer s.Drain(expiredCtx(t))
	body := http.MaxBytesReader(nil, io.NopCloser(strings.NewReader("a journal past its cap")), 8)
	_, _, err := s.SubmitReplay("t", &JobSpec{Kind: JobReplay}, body)
	var tooBig *http.MaxBytesError
	if !errors.As(err, &tooBig) || tooBig.Limit != 8 {
		t.Fatalf("SubmitReplay = %v, want a *http.MaxBytesError with limit 8", err)
	}
	if !strings.HasPrefix(err.Error(), "service: spool journal: ") {
		t.Errorf("error %q does not name the spool step", err)
	}
	if spooled, _ := filepath.Glob(filepath.Join(s.spool.dir, "jobs", "*")); len(spooled) != 0 {
		t.Errorf("the failed upload left spool entries %v", spooled)
	}
	if n := s.Stats().Tenants["t"].Admitted; n != 0 {
		t.Errorf("the failed upload charged the tenant %d admissions", n)
	}
}

// TestMultiBenchInjectRouting: a multi-benchmark job's injection IDs
// reach only the benchmarks that declare them, and a single-benchmark
// job keeps its list as given (its manifest keys do not move).
func TestMultiBenchInjectRouting(t *testing.T) {
	sp := &JobSpec{Kind: JobBench, Benches: []string{"psum", "scan", "reduce"},
		RunConfig: harness.RunConfig{Inject: []string{"reduce.fence0", "psum.fence0", "reduce.bar0"}}}
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
	single := &JobSpec{Kind: JobBench, Benches: []string{"reduce"},
		RunConfig: harness.RunConfig{Inject: []string{"reduce.bar0", "reduce.fence0"}}}
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

// parkFS is the real filesystem, except that the first Sync of a file
// opened with OpenFile under a .manifest name (a bench job's
// checkpoint; its first sync follows the first completed run's record)
// signals parked and then blocks until release is closed.
type parkFS struct {
	vfs.OS
	parked  chan struct{}
	release <-chan struct{}
	once    sync.Once
}

func (p *parkFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := p.OS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, ".manifest") {
		return f, err
	}
	return &parkFile{File: f, fs: p}, nil
}

type parkFile struct {
	vfs.File
	fs *parkFS
}

func (f *parkFile) Sync() error {
	f.fs.once.Do(func() {
		close(f.fs.parked)
		<-f.fs.release
	})
	return f.File.Sync()
}

// TestDrainCheckpointResume is the core robustness invariant: a drain
// that cuts a bench job mid-sweep leaves resumable state, and a
// restarted daemon finishes the job with findings byte-identical to an
// uninterrupted run.
func TestDrainCheckpointResume(t *testing.T) {
	// hist finishes first and lands in the job's manifest, whose first
	// sync parks the job until the drain has cancelled it, so mcarlo
	// never gets to run.
	spec := &JobSpec{Kind: JobBench, Benches: []string{"hist", "mcarlo"}, RunConfig: harness.RunConfig{Scale: 1}}

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
	pfs := &parkFS{parked: make(chan struct{})}
	s, err := New(Config{DataDir: dir, Workers: 1, Tenant: openTenants, Log: testLogger(t), FS: pfs})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pfs.release = s.jobsCtx.Done() // before Start: the workers read it
	s.Start()
	id, _, err := s.Submit("t", spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Wait until the first completed run is being checkpointed, then
	// slam the drain window shut.
	select {
	case <-pfs.parked:
	case <-ctx.Done():
		t.Fatal("the job never checkpointed its first run")
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

// TestSpooledSpecEveryRunField: a spec spooled by the version whose
// JobSpec declared each run field itself, in that version's field
// order and with every run field set, recovers to the same runs.
func TestSpooledSpecEveryRunField(t *testing.T) {
	sp, err := openSpool(nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const spooled = `{"id":"0123456789abcdef","seq":3,"tenant":"ci","enqueued_at":"2026-01-02T03:04:05Z",` +
		`"spec":{"kind":"bench","benches":["reduce","psum"],"detector":"shared+global","scale":2,"single_block":true,` +
		`"inject":["reduce.fence0","psum.fence0"],"shared_granularity":8,"global_granularity":8,"static_filter":true,` +
		`"witness_seed":true,"fault_plan":"queue:cap=16,drain=1","fault_seed":7,"degradation":"reinit","small_gpu":true,` +
		`"max_cycles":50000000,"timeout_ms":60000}}`
	if err := os.WriteFile(sp.specPath("0123456789abcdef"), []byte(spooled), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, skipped, err := sp.load()
	if err != nil || len(skipped) != 0 || len(entries) != 1 {
		t.Fatalf("load: %d entries, skipped %v, err %v", len(entries), skipped, err)
	}
	e := entries[0]
	if e.Seq != 3 || e.Tenant != "ci" || e.Spec.Kind != JobBench || e.Spec.TimeoutMS != 60000 ||
		!e.EnqueuedAt.Equal(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)) {
		t.Errorf("recovered entry %+v, spec %+v", e.spoolSpec, e.Spec)
	}
	runs, err := e.Spec.RunConfigs(false)
	if err != nil {
		t.Fatal(err)
	}
	small := gpu.TestConfig()
	base := harness.RunConfig{
		Detector: harness.DetSharedGlobal, Scale: 2, SingleBlock: true,
		SharedGranularity: 8, GlobalGranularity: 8, StaticFilter: true, WitnessSeed: true, GPU: &small,
		FaultPlan: "queue:cap=16,drain=1", FaultSeed: 7, Degradation: "reinit", MaxCycles: 50000000,
	}
	want := []harness.RunConfig{base, base}
	want[0].Bench, want[0].Inject = "reduce", []string{"reduce.fence0"}
	want[1].Bench, want[1].Inject = "psum", []string{"psum.fence0"}
	if !reflect.DeepEqual(runs, want) {
		t.Errorf("recovered spec expands to\n%+v\nwant\n%+v", runs, want)
	}
}
