// Package service is race-detection-as-a-service: a hardened,
// multi-tenant daemon core around the haccrg job engine. It accepts
// benchmark jobs, uploaded journal streams, and static-analysis
// requests over HTTP+JSON and executes them on the same
// harness.ExecContext job core every CLI uses.
//
// Robustness is the design center, not an afterthought:
//
//   - a bounded job queue with explicit admission control — saturation
//     sheds load with 429 + Retry-After, never unbounded goroutines;
//   - per-tenant token-bucket quotas and concurrent-job caps;
//   - per-job deadlines wired through context into the simulator's
//     cycle-budget/watchdog guard rails;
//   - panic-isolated workers: a crashed job becomes a structured error
//     report, not a dead daemon;
//   - a content-addressed cache of static-analysis reports keyed on
//     program hash;
//   - durable admission (job specs sync to the spool before the 202)
//     and graceful drain: in-flight bench jobs checkpoint through the
//     sweep-manifest resume path and finish byte-identically after a
//     restart.
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"haccrg/internal/harness"
	"haccrg/internal/version"
	"haccrg/internal/vfs"
)

// Config parameterizes the daemon. Zero values select the documented
// defaults.
type Config struct {
	// DataDir is the durable root: job spool, manifests, uploaded
	// journals. Required.
	DataDir string
	// FS is the filesystem the spool and job manifests live on (nil =
	// the real one). Chaos campaigns inject a fault-carrying FS here to
	// harden the durability paths.
	FS vfs.FS
	// QueueDepth bounds the admission queue (default 64). A full queue
	// is the backpressure signal: submissions get 429 + Retry-After.
	QueueDepth int
	// Workers is the number of concurrent job executors (default
	// GOMAXPROCS).
	Workers int
	// Tenant bounds each tenant (default: 5 jobs/s sustained, burst
	// 10, 4 concurrent).
	Tenant TenantConfig
	// DefaultDeadline is the per-job wall-clock deadline when the spec
	// requests none (default 5m); MaxDeadline clamps spec requests
	// (default 30m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// CacheEntries bounds the static-report cache (default 128).
	CacheEntries int
	// SmallGPU makes every job run on the 4-SM test device regardless
	// of its spec — the fast configuration tests and smoke jobs use.
	SmallGPU bool
	// Log receives the daemon's decision log (nil = standard logger).
	Log *log.Logger

	// now is the injectable clock (tests); nil = time.Now.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Tenant == (TenantConfig{}) {
		c.Tenant = TenantConfig{Rate: 5, Burst: 10, MaxConcurrent: 4}
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 5 * time.Minute
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 30 * time.Minute
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.Log == nil {
		c.Log = log.Default()
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// job is one admitted unit of work.
type job struct {
	mu     sync.Mutex
	status JobStatus
	spec   *JobSpec
	done   chan struct{}
}

func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.status
	return st
}

func (j *job) setState(state string, at time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status.State = state
	switch state {
	case StateRunning:
		j.status.StartedAt = at
	case StateDone, StateFailed, StateInterrupted:
		j.status.FinishedAt = at
	}
}

// Server is the daemon core. Create with New, serve its Handler, stop
// with Drain.
type Server struct {
	cfg     Config
	spool   *spool
	tenants *tenants
	cache   *reportCache

	queue    chan *job
	stop     chan struct{} // closed by Drain: workers exit once queue is empty
	stopOnce sync.Once

	mu          sync.Mutex
	jobs        map[string]*job
	draining    bool
	outstanding int // admitted jobs not yet terminal (queued + running)

	workers sync.WaitGroup

	jobsCtx    context.Context // cancelled to hard-stop in-flight jobs at drain deadline
	cancelJobs context.CancelFunc

	// counters for /statsz
	accepted     atomic.Int64
	completed    atomic.Int64
	failed       atomic.Int64
	interrupted  atomic.Int64
	panicked     atomic.Int64
	rejQueueFull atomic.Int64
	rejQuota     atomic.Int64
	rejDraining  atomic.Int64
	healthRuns   atomic.Int64
	degradedRuns atomic.Int64

	// seq is the admission sequence counter: each accepted job records
	// the next value in its spool spec so recovery preserves FIFO order.
	// Initialized past the largest recovered Seq.
	seq atomic.Int64

	// recoveredOrder is the IDs of unfinished jobs re-admitted at
	// startup, in re-admission order — the observable the FIFO-recovery
	// contract (and the chaos campaign's job-drop invariant) is checked
	// against.
	recoveredOrder []string
}

// New builds a Server over DataDir, recovering any jobs a previous
// process accepted but never finished: their specs re-enter the queue,
// and bench jobs resume from their sweep manifests.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("service: Config.DataDir is required")
	}
	sp, err := openSpool(cfg.FS, cfg.DataDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		spool:      sp,
		tenants:    newTenants(cfg.Tenant, cfg.now),
		cache:      newReportCache(cfg.CacheEntries),
		queue:      make(chan *job, cfg.QueueDepth),
		stop:       make(chan struct{}),
		jobs:       map[string]*job{},
		jobsCtx:    ctx,
		cancelJobs: cancel,
	}
	if err := s.recover(); err != nil {
		cancel()
		return nil, err
	}
	return s, nil
}

// recover reloads the spool: finished jobs become queryable history,
// unfinished ones are re-admitted — in original submission order, the
// spool's Seq ordering — ahead of any new traffic.
func (s *Server) recover() error {
	entries, skipped, err := s.spool.load()
	if err != nil {
		return err
	}
	for _, path := range skipped {
		s.cfg.Log.Printf("service: spool: skipping unreadable entry %s", path)
	}
	requeued := 0
	for _, e := range entries {
		if e.Seq > s.seq.Load() {
			s.seq.Store(e.Seq)
		}
		j := &job{
			spec: e.Spec,
			done: make(chan struct{}),
			status: JobStatus{
				ID: e.ID, Tenant: e.Tenant, Kind: e.Spec.Kind, State: StateQueued,
				EnqueuedAt: e.EnqueuedAt,
			},
		}
		if e.Status != nil {
			// Terminal before the restart: history only.
			j.status = *e.Status
			close(j.done)
			s.jobs[e.ID] = j
			continue
		}
		if len(s.queue) == cap(s.queue) {
			// More recovered jobs than queue slots: a misconfigured
			// restart (depth shrank). Refuse rather than silently drop.
			return fmt.Errorf("service: %d recovered jobs exceed queue depth %d", requeued+1, cap(s.queue))
		}
		s.jobs[e.ID] = j
		s.tenants.restore(e.Tenant)
		s.outstanding++
		s.queue <- j
		s.recoveredOrder = append(s.recoveredOrder, e.ID)
		requeued++
	}
	if requeued > 0 {
		s.cfg.Log.Printf("service: recovered %d unfinished job(s) from spool; resuming", requeued)
	}
	return nil
}

// RecoveredOrder returns the IDs of the unfinished jobs this process
// re-admitted at startup, in re-admission order. The contract is FIFO:
// original submission order (the spool's Seq), not directory-listing
// order of the random job IDs.
func (s *Server) RecoveredOrder() []string {
	return append([]string(nil), s.recoveredOrder...)
}

// Start launches the worker pool.
func (s *Server) Start() {
	s.workers.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go func() {
			defer s.workers.Done()
			for {
				select {
				case j := <-s.queue:
					s.runJob(j)
				case <-s.stop:
					// Drain closed the stop gate; finish whatever is
					// still queued, then exit.
					select {
					case j := <-s.queue:
						s.runJob(j)
					default:
						return
					}
				}
			}
		}()
	}
}

// newJobID returns a collision-resistant job identifier.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("service: job id: %w", err)
	}
	return "j" + hex.EncodeToString(b[:]), nil
}

// admission failure classes surfaced by Submit.
var (
	// ErrDraining: the daemon is shutting down; nothing new is
	// admitted.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrQueueFull: the bounded queue is saturated — the backpressure
	// signal.
	ErrQueueFull = errors.New("service: job queue is full")
)

// Submit runs admission control for a validated spec on behalf of
// tenant and, if every gate passes, durably spools and enqueues the
// job. The returned Retry-After hint is non-zero exactly when err is
// one of the retryable rejections (ErrQueueFull, ErrQuota,
// ErrConcurrency, ErrDraining).
func (s *Server) Submit(tenant string, spec *JobSpec) (id string, retryAfter time.Duration, err error) {
	return s.submit(tenant, spec, nil)
}

// SubmitReplay admits a replay job whose journal bytes come from
// journalBody. The journal is durably stored alongside the spec before
// admission is acknowledged, so a restarted daemon can still execute
// the job.
func (s *Server) SubmitReplay(tenant string, spec *JobSpec, journalBody io.Reader) (id string, retryAfter time.Duration, err error) {
	if spec.Kind != JobReplay {
		return "", 0, fmt.Errorf("service: SubmitReplay requires a %q spec", JobReplay)
	}
	if journalBody == nil {
		return "", 0, fmt.Errorf("service: replay job needs a journal body")
	}
	return s.submit(tenant, spec, journalBody)
}

func (s *Server) submit(tenant string, spec *JobSpec, journalBody io.Reader) (id string, retryAfter time.Duration, err error) {
	if err := spec.validate(); err != nil {
		return "", 0, err
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.rejDraining.Add(1)
		return "", 10 * time.Second, ErrDraining
	}
	if retry, err := s.tenants.admit(tenant); err != nil {
		s.rejQuota.Add(1)
		return "", retry, err
	}
	id, err = newJobID()
	if err != nil {
		s.tenants.refund(tenant)
		return "", 0, err
	}
	// Durability before acknowledgement: once the spec (and, for
	// replay, the journal) is on disk the job survives any crash; only
	// then is it visible and queued. The journal lands first — an
	// orphaned journal without a spec is inert, while a spec whose
	// journal vanished would fail its job.
	if journalBody != nil {
		if err := writeSynced(s.spool.fsys, s.spool.journalPath(id), journalBody); err != nil {
			s.tenants.refund(tenant)
			return "", 0, fmt.Errorf("service: spool journal: %w", err)
		}
	}
	enqueued := s.cfg.now()
	if err := s.spool.putSpec(id, s.seq.Add(1), tenant, enqueued, spec); err != nil {
		s.spool.dropJournal(id)
		s.tenants.refund(tenant)
		return "", 0, err
	}
	j := &job{
		spec: spec,
		done: make(chan struct{}),
		status: JobStatus{
			ID: id, Tenant: tenant, Kind: spec.Kind, State: StateQueued,
			EnqueuedAt: enqueued,
		},
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.spool.drop(id)
		s.tenants.refund(tenant)
		s.rejDraining.Add(1)
		return "", 10 * time.Second, ErrDraining
	}
	select {
	case s.queue <- j:
		s.jobs[id] = j
		s.outstanding++
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.spool.drop(id)
		s.tenants.refund(tenant)
		s.rejQueueFull.Add(1)
		return "", 2 * time.Second, ErrQueueFull
	}
	s.accepted.Add(1)
	s.cfg.Log.Printf("service: job %s accepted (%s, tenant %s)", id, spec.Kind, tenant)
	return id, 0, nil
}

// JournalPath returns where the spool keeps a replay job's uploaded
// journal: SubmitReplay stores it there, and a caller may remove it
// once the job has finished.
func (s *Server) JournalPath(id string) string { return s.spool.journalPath(id) }

// Job returns a job's status snapshot.
func (s *Server) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return JobStatus{}, false
	}
	return j.snapshot(), true
}

// Jobs lists status snapshots for one tenant (all tenants when tenant
// is empty), newest first by enqueue time, ties by ID. Queued jobs
// recovered from a spool that predates spooled enqueue times list last.
func (s *Server) Jobs(tenant string) []JobStatus {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		st := j.snapshot()
		if tenant == "" || st.Tenant == tenant {
			out = append(out, st)
		}
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b JobStatus) int {
		if c := b.EnqueuedAt.Compare(a.EnqueuedAt); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	})
	return out
}

// Wait blocks until the job reaches a terminal state or ctx ends.
func (s *Server) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return JobStatus{}, fmt.Errorf("service: unknown job %q", id)
	}
	select {
	case <-j.done:
		return j.snapshot(), nil
	case <-ctx.Done():
		return j.snapshot(), ctx.Err()
	}
}

// jobDeadline clamps a spec's requested deadline to policy.
func (s *Server) jobDeadline(spec *JobSpec) time.Duration {
	d := s.cfg.DefaultDeadline
	if spec.TimeoutMS > 0 {
		d = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

// runJob executes one job with panic isolation, a deadline, and the
// drain-aware terminal-state protocol: context cancellation from a
// drain leaves the job interrupted-but-resumable (no terminal status
// spooled, checkpoint manifest intact), every other outcome is
// terminal and durably recorded.
func (s *Server) runJob(j *job) {
	st := j.snapshot()
	defer func() {
		if r := recover(); r != nil {
			// A crashed job is a structured error report, not a dead
			// daemon. The worker survives to take the next job.
			s.panicked.Add(1)
			s.finish(j, StateFailed, fmt.Errorf("job panicked: %v", r))
		}
	}()
	j.setState(StateRunning, s.cfg.now())
	ctx, cancel := context.WithTimeout(s.jobsCtx, s.jobDeadline(j.spec))
	defer cancel()

	var err error
	switch j.spec.Kind {
	case JobBench:
		err = s.runBenchJob(ctx, j)
	case JobReplay:
		var sum *ReplaySummary
		sum, err = execReplay(ctx, j.spec, s.spool.journalPath(st.ID))
		if err == nil {
			j.mu.Lock()
			j.status.Replay = sum
			j.mu.Unlock()
		}
	case JobAnalyze:
		var sum *AnalyzeSummary
		var hit bool
		sum, hit, err = execAnalyze(ctx, j.spec, s.cache, s.cfg.SmallGPU)
		if err == nil {
			j.mu.Lock()
			j.status.Analyze = sum
			j.status.CacheHit = hit
			j.mu.Unlock()
		}
	default:
		err = fmt.Errorf("service: unknown job kind %q", j.spec.Kind)
	}

	switch {
	case err == nil:
		s.finish(j, StateDone, nil)
	case s.jobsCtx.Err() != nil && errors.Is(err, context.Canceled):
		// Drained mid-flight: resumable, not failed. The spool spec
		// stays; a restart re-admits the job and the bench manifest
		// serves every pre-drain completion.
		s.interrupted.Add(1)
		j.setState(StateInterrupted, s.cfg.now())
		s.release(j)
		s.cfg.Log.Printf("service: job %s interrupted by drain (resumable)", st.ID)
	default:
		s.finish(j, StateFailed, err)
	}
}

// runBenchJob executes a bench job's sweep against its per-job
// checkpoint manifest and folds health into the daemon roll-up.
func (s *Server) runBenchJob(ctx context.Context, j *job) error {
	st := j.snapshot()
	m, salvage, err := harness.OpenManifestFS(s.spool.fsys, s.spool.manifestPath(st.ID), true)
	if err != nil {
		return err
	}
	defer m.Close()
	if salvage.Records > 0 {
		s.cfg.Log.Printf("service: job %s resuming from manifest (%d checkpointed run(s))", st.ID, salvage.Records)
	}
	runs, err := execBench(ctx, j.spec, m, s.cfg.SmallGPU)
	if err != nil {
		return err
	}
	for _, r := range runs {
		s.healthRuns.Add(1)
		if r.Degraded {
			s.degradedRuns.Add(1)
		}
	}
	j.mu.Lock()
	j.status.Runs = runs
	j.mu.Unlock()
	return nil
}

// finish moves a job to a terminal state, records it durably, and
// releases its tenant slot.
func (s *Server) finish(j *job, state string, jobErr error) {
	// Count before the terminal state becomes visible: a client that
	// polls the job to completion and then reads /statsz must find it
	// counted (the status write below fsyncs, which is a wide window).
	switch state {
	case StateDone:
		s.completed.Add(1)
	case StateFailed:
		s.failed.Add(1)
	}
	j.mu.Lock()
	j.status.State = state
	j.status.FinishedAt = s.cfg.now()
	if jobErr != nil {
		j.status.Error = jobErr.Error()
	}
	st := j.status
	j.mu.Unlock()
	if err := s.spool.putStatus(&st); err != nil {
		// The result is still served from memory; the restart will
		// re-run the job (idempotent for bench jobs via the manifest).
		s.cfg.Log.Printf("service: job %s: persisting status: %v", st.ID, err)
	}
	if state == StateDone {
		s.cfg.Log.Printf("service: job %s done", st.ID)
	} else {
		s.cfg.Log.Printf("service: job %s failed: %v", st.ID, jobErr)
	}
	s.release(j)
}

// release closes the job's done gate and frees its accounting.
func (s *Server) release(j *job) {
	st := j.snapshot()
	s.tenants.release(st.Tenant)
	s.mu.Lock()
	s.outstanding--
	s.mu.Unlock()
	close(j.done)
}

// DrainReport says how a drain ended.
type DrainReport struct {
	// Completed is how many jobs reached a terminal state during the
	// drain window.
	Completed int64
	// Interrupted is how many in-flight jobs were checkpointed when
	// the window closed.
	Interrupted int64
	// Requeued is how many accepted jobs never started; they remain
	// spooled for the next process.
	Requeued int
}

// Drain gracefully shuts the daemon down: admission stops immediately
// (readyz goes not-ready, submissions get 503), queued and running
// jobs are given until ctx ends to finish, and whatever is still in
// flight after that is cancelled — bench jobs checkpoint through their
// manifests and everything unfinished stays spooled, so a restarted
// daemon resumes to byte-identical findings. Drain returns once every
// worker has exited.
func (s *Server) Drain(ctx context.Context) DrainReport {
	s.mu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	s.mu.Unlock()
	if !alreadyDraining {
		s.cfg.Log.Printf("service: draining: admission stopped")
	}

	doneBefore := s.completed.Load() + s.failed.Load()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
wait:
	for {
		s.mu.Lock()
		idle := s.outstanding == 0
		s.mu.Unlock()
		if idle {
			break
		}
		select {
		case <-ctx.Done():
			// Window closed: hard-stop in-flight jobs. They observe the
			// cancellation through their contexts, checkpoint, and are
			// classified interrupted by runJob.
			s.cfg.Log.Printf("service: drain window closed; checkpointing in-flight jobs")
			s.cancelJobs()
			break wait
		case <-tick.C:
		}
	}
	s.stopOnce.Do(func() { close(s.stop) })
	s.workers.Wait()

	s.mu.Lock()
	requeued := 0
	for _, j := range s.jobs {
		if st := j.snapshot(); st.State == StateQueued {
			requeued++
		}
	}
	s.mu.Unlock()
	rep := DrainReport{
		Completed:   s.completed.Load() + s.failed.Load() - doneBefore,
		Interrupted: s.interrupted.Load(),
		Requeued:    requeued,
	}
	s.cfg.Log.Printf("service: drained: %d completed, %d interrupted (resumable), %d still queued",
		rep.Completed, rep.Interrupted, rep.Requeued)
	return rep
}

// Draining reports whether admission is stopped.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Stats is the /statsz snapshot.
type Stats struct {
	Version  string `json:"version"`
	Draining bool   `json:"draining"`

	QueueLen   int            `json:"queue_len"`
	QueueCap   int            `json:"queue_cap"`
	Workers    int            `json:"workers"`
	InFlight   int            `json:"in_flight"` // queued + running
	KnownJobs  int            `json:"known_jobs"`
	JobsStates map[string]int `json:"jobs_by_state"`

	Accepted    int64 `json:"accepted"`
	Completed   int64 `json:"completed"`
	Failed      int64 `json:"failed"`
	Interrupted int64 `json:"interrupted"`
	Panicked    int64 `json:"panicked"`

	Rejected struct {
		QueueFull int64 `json:"queue_full"`
		Quota     int64 `json:"quota"`
		Draining  int64 `json:"draining"`
	} `json:"rejected"`

	Cache   CacheStats             `json:"cache"`
	Tenants map[string]TenantStats `json:"tenants"`

	// Health is the DetectorHealth roll-up over every bench run the
	// daemon executed: how many ran, and how many ran degraded (their
	// findings may under-report).
	Health struct {
		Runs     int64 `json:"runs"`
		Degraded int64 `json:"degraded"`
	} `json:"health"`
}

// Stats snapshots the daemon.
func (s *Server) Stats() Stats {
	st := Stats{
		Version:  version.Version,
		Draining: s.Draining(),
		QueueLen: len(s.queue),
		QueueCap: cap(s.queue),
		Workers:  s.cfg.Workers,

		Accepted:    s.accepted.Load(),
		Completed:   s.completed.Load(),
		Failed:      s.failed.Load(),
		Interrupted: s.interrupted.Load(),
		Panicked:    s.panicked.Load(),
		Cache:       s.cache.stats(),
		Tenants:     s.tenants.snapshot(),
		JobsStates:  map[string]int{},
	}
	st.Rejected.QueueFull = s.rejQueueFull.Load()
	st.Rejected.Quota = s.rejQuota.Load()
	st.Rejected.Draining = s.rejDraining.Load()
	st.Health.Runs = s.healthRuns.Load()
	st.Health.Degraded = s.degradedRuns.Load()
	s.mu.Lock()
	st.InFlight = s.outstanding
	st.KnownJobs = len(s.jobs)
	for _, j := range s.jobs {
		st.JobsStates[j.snapshot().State]++
	}
	s.mu.Unlock()
	return st
}
