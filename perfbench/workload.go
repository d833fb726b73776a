package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"haccrg"
	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/harness"
	"haccrg/internal/isa"
	"haccrg/internal/journal"
	"haccrg/internal/kernels"
	"haccrg/internal/service"
	"haccrg/internal/staticrace"
)

// Workload names.
const (
	suiteDetect   = "suite-detect"
	suiteFilter   = "suite-filter"
	replayService = "replay-service"
)

var workloadNames = []string{suiteDetect, suiteFilter, replayService}

// workload is one closed-loop client's view of the system: op runs the
// suite once, over the benchmarks in the given order (indices into
// benchNames), and returns one outcome per benchmark. A nil tracer runs
// the op untraced through the public surfaces; a non-nil one runs the
// same work with a span around each layer and counters in c.
type workload interface {
	op(ctx context.Context, order []int, tr *tracer, c *opCounters) ([]outcome, error)
	close() error
}

// outcome is one benchmark run's result: the fields the pin table
// checks plus the modelled-work counters the traced run reports.
type outcome struct {
	bench    string
	stats    *gpu.LaunchStats // nil for a replay
	races    []string         // sorted Race.String()
	checks   int64            // lane checks the RDUs performed
	filtered int64            // lane checks the static filter skipped
	match    *bool            // replay-equals-live verdict (replays only)
}

// opCounters are one traced op's counters, recorded at the same layer
// boundaries as its spans.
type opCounters struct {
	op               int
	warpMem, barrier time.Duration // inside the detector's WarpMem / Barrier+BlockStart
	detCalls         int64
	checks           int64
	filtered         int64
	warpInstrs       int64
	cycles           int64
	l1, l2, dram     int64
	flits            int64
	journalBytes     int64
	queue, run       []time.Duration // per replay job: enqueue->start, start->finish
	gcCycles         float64
	gcCPU            float64 // seconds
}

func (c *opCounters) addDetector(td *timedDetector) {
	c.warpMem += td.warpMem
	c.barrier += td.barrier
	c.detCalls += td.calls
}

func (c *opCounters) addOutcome(o outcome) {
	c.checks += o.checks
	c.filtered += o.filtered
	if st := o.stats; st != nil {
		c.warpInstrs += st.WarpInstrs
		c.cycles += st.Cycles
		c.l1 += st.L1.ReadHits + st.L1.ReadMisses + st.L1.WriteHits + st.L1.WriteMisses
		c.l2 += st.L2.ReadHits + st.L2.ReadMisses + st.L2.WriteHits + st.L2.WriteMisses
		c.dram += st.DRAMTx
		c.flits += st.NoCFlits
	}
}

// benchNames is the suite in Table II order.
func benchNames() []string {
	var out []string
	for _, b := range haccrg.Benchmarks() {
		out = append(out, b.Name)
	}
	return out
}

func outcomeOf(name string, st *gpu.LaunchStats, races []*core.Race, rep *core.Report) outcome {
	rs := make([]string, len(races))
	for i, r := range races {
		rs[i] = r.String()
	}
	sort.Strings(rs)
	o := outcome{bench: name, stats: st, races: rs}
	if rep != nil {
		o.checks = rep.Summary.Checks["shared"] + rep.Summary.Checks["global"]
		o.filtered = rep.Summary.Checks["filtered"]
	}
	return o
}

// facadeRun runs one benchmark through the root package, the way a
// library user would: paper detection, scale 1, the default serial
// RDU engines. rec, when non-nil, receives the run's journal.
func facadeRun(name string, filter bool, rec io.Writer) (outcome, error) {
	det := haccrg.DefaultDetection()
	res, err := haccrg.RunBenchmark(name, haccrg.RunOptions{
		Detection: &det, Scale: 1, StaticFilter: filter, Record: rec,
	})
	if err != nil {
		return outcome{}, err
	}
	return outcomeOf(name, res.Stats, res.Races, res.Report), nil
}

// tracedRun is facadeRun composed from the internal packages the
// facade's job core calls, in the same order, with a span around each
// layer: kernels (device and plan build), staticrace (the filter's
// proofs), gpu (the plan run) with the detector's calls as its core
// child, and core.report (extracting the findings). When rec is
// non-nil the journal recorder sits between two timed detectors, so
// its own time (encoding and writing records) is a journal span.
func tracedRun(ctx context.Context, name string, filter bool, rec io.Writer, tr *tracer, parent int, c *opCounters) (outcome, error) {
	bm := kernels.Get(name)
	if bm == nil {
		return outcome{}, fmt.Errorf("unknown benchmark %q", name)
	}
	opt := core.DefaultOptions()
	opt.Degradation = core.DegradeQuarantine
	det, err := core.New(opt)
	if err != nil {
		return outcome{}, err
	}
	inner := newTimedDetector(det)
	outer := inner
	var jr *journal.Recorder
	if rec != nil {
		jr, err = journal.NewRecorder(rec, inner)
		if err != nil {
			return outcome{}, err
		}
		err = jr.SetMeta(&journal.Meta{
			Bench: name, Detector: string(harness.DetSharedGlobal), Scale: 1,
			SharedGranularity: opt.SharedGranularity, GlobalGranularity: opt.GlobalGranularity,
		})
		if err != nil {
			return outcome{}, err
		}
		outer = newTimedDetector(jr)
	}
	cfg := gpu.DefaultConfig()
	cfg.NoC.RDUMetaEnabled = true // request packets carry sync/fence/atomic IDs for the global RDUs

	run := tr.begin("run:"+name, parent)
	ks := tr.begin("kernels", run)
	dev, err := gpu.NewDevice(cfg, bm.GlobalBytes(1), outer)
	if err != nil {
		return outcome{}, err
	}
	plan, err := bm.Build(dev, kernels.Params{Scale: 1})
	tr.end(ks)
	if err != nil {
		return outcome{}, err
	}
	if filter {
		sr := tr.begin("staticrace", run)
		f, err := staticrace.NewFilter(staticrace.Config{
			WarpSize:          cfg.WarpSize,
			SharedGranularity: opt.SharedGranularity,
			GlobalGranularity: opt.GlobalGranularity,
			WarpAware:         opt.WarpAware,
		}, plan.Kernels...)
		tr.end(sr)
		if err != nil {
			return outcome{}, err
		}
		det.SetStaticFilter(f)
	}
	g := tr.begin("gpu", run)
	gStart := time.Now()
	stats, err := plan.RunContext(ctx, dev, gpu.LaunchLimits{})
	tr.end(g)
	if err != nil {
		return outcome{}, err
	}
	detSpan := g
	if jr != nil {
		detSpan = tr.add("journal", g, gStart, outer.busy(), outer.calls)
		if err := jr.Err(); err != nil {
			return outcome{}, fmt.Errorf("recording %s: %w", name, err)
		}
	}
	tr.add("core", detSpan, gStart, inner.busy(), inner.calls)

	rs := time.Now()
	races := det.SortedRaces()
	det.SiteCount(isa.SpaceShared)
	det.SiteCount(isa.SpaceGlobal)
	det.RaceGroups()
	det.Stats()
	rep := det.Report()
	tr.add("core.report", run, rs, time.Since(rs), 1)
	tr.end(run)

	o := outcomeOf(name, stats, races, rep)
	if c != nil {
		c.addDetector(inner)
		c.addOutcome(o)
	}
	return o, nil
}

// suite runs the ten benchmarks once each per op, with or without the
// static filter.
type suite struct {
	names  []string
	filter bool
}

// newSuite warms the kernel program cache: set-up builds every
// benchmark's plan once on a fresh device, so ops start warm.
func newSuite(filter bool, tr *tracer) (*suite, error) {
	for _, bm := range haccrg.Benchmarks() {
		var id int
		if tr != nil {
			id = tr.begin("kernels", -1)
		}
		dev, err := haccrg.NewDevice(haccrg.DefaultGPU(), bm.GlobalBytes(1), nil)
		if err != nil {
			return nil, err
		}
		if _, err := bm.Build(dev, haccrg.BenchParams{Scale: 1}); err != nil {
			return nil, fmt.Errorf("building %s: %w", bm.Name, err)
		}
		if tr != nil {
			tr.end(id)
		}
	}
	return &suite{names: benchNames(), filter: filter}, nil
}

func (s *suite) op(ctx context.Context, order []int, tr *tracer, c *opCounters) ([]outcome, error) {
	out := make([]outcome, 0, len(order))
	for _, i := range order {
		var o outcome
		var err error
		if tr == nil {
			o, err = facadeRun(s.names[i], s.filter, nil)
		} else {
			o, err = tracedRun(ctx, s.names[i], s.filter, nil, tr, tr.opSpan, c)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.names[i], err)
		}
		out = append(out, o)
	}
	return out, nil
}

func (s *suite) close() error { return nil }

// replayTenant is the benchmark client's tenant identity.
const replayTenant = "perfbench"

// replaySvc uploads the ten recorded journals to an in-process daemon
// over loopback HTTP per op, and waits for every verdict.
type replaySvc struct {
	names    []string
	journals [][]byte
	meta     []harness.RunConfig // the detector each journal replays under

	dir       string
	srv       *service.Server
	hs        *http.Server
	served    chan error
	transport *http.Transport
	client    *service.Client
	done      []string // jobs whose journals prune removes
}

// newReplaySvc records the ten journals through the facade (through
// tracedRun when tracing, so journal encoding is measured), then
// starts a daemon on a fresh spool dir under dataRoot with the default
// worker count and a tenant quota above the offered load.
func newReplaySvc(ctx context.Context, dataRoot string, tr *tracer, pins map[string]pin) (_ *replaySvc, err error) {
	r := &replaySvc{names: benchNames()}
	for _, name := range r.names {
		var buf bytes.Buffer
		var o outcome
		if tr == nil {
			o, err = facadeRun(name, false, &buf)
		} else {
			o, err = tracedRun(ctx, name, false, &buf, tr, -1, nil)
		}
		if err != nil {
			return nil, fmt.Errorf("recording %s: %w", name, err)
		}
		if err := checkRun(pins, o, false); err != nil {
			return nil, fmt.Errorf("recording: %w", err)
		}
		r.journals = append(r.journals, buf.Bytes())
		r.meta = append(r.meta, harness.RunConfig{
			Bench: name, Detector: harness.DetSharedGlobal,
			SharedGranularity: haccrg.DefaultDetection().SharedGranularity,
			GlobalGranularity: haccrg.DefaultDetection().GlobalGranularity,
		})
	}
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	if r.dir, err = os.MkdirTemp(dataRoot, "spool-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(r.dir)
		}
	}()
	r.srv, err = service.New(service.Config{
		DataDir: r.dir,
		// One op offers ten jobs back to back; the default quota (5/s,
		// burst 10, 4 concurrent) would turn it into a 429-backoff test.
		Tenant: service.TenantConfig{Rate: 1000, Burst: 100, MaxConcurrent: 64},
		Log:    log.New(io.Discard, "", 0),
	})
	if err != nil {
		return nil, err
	}
	r.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.srv.Drain(ctx)
		return nil, err
	}
	r.hs = &http.Server{Handler: r.srv.Handler()}
	r.served = make(chan error, 1)
	go func() { r.served <- r.hs.Serve(ln) }()
	r.transport = &http.Transport{MaxIdleConnsPerHost: 4}
	r.client = &service.Client{
		BaseURL:    "http://" + ln.Addr().String(),
		Tenant:     replayTenant,
		HTTPClient: &http.Client{Transport: r.transport, Timeout: time.Minute},
	}
	return r, nil
}

func (r *replaySvc) op(ctx context.Context, order []int, tr *tracer, c *opCounters) ([]outcome, error) {
	ids := make([]string, len(order))
	var submit time.Duration
	start := time.Now()
	for k, i := range order {
		s := time.Now()
		id, err := r.client.SubmitReplay(ctx, r.journals[i], "")
		submit += time.Since(s)
		if err != nil {
			return nil, fmt.Errorf("uploading %s: %w", r.names[i], err)
		}
		ids[k] = id
	}
	var wait int
	if tr != nil {
		tr.add("service.submit", tr.opSpan, start, submit, int64(len(order)))
		wait = tr.begin("service.wait", tr.opSpan)
	}
	r.done = append(r.done, ids...)
	out := make([]outcome, 0, len(order))
	for k, i := range order {
		st, err := r.srv.Wait(ctx, ids[k])
		if err != nil {
			return nil, fmt.Errorf("waiting for %s: %w", r.names[i], err)
		}
		if st.State != service.StateDone || st.Replay == nil {
			return nil, fmt.Errorf("replay of %s ended %s: %s", r.names[i], st.State, st.Error)
		}
		if c != nil {
			c.queue = append(c.queue, st.StartedAt.Sub(st.EnqueuedAt))
			c.run = append(c.run, st.FinishedAt.Sub(st.StartedAt))
			c.journalBytes += int64(len(r.journals[i]))
		}
		out = append(out, outcome{bench: r.names[i], races: st.Replay.Races, match: st.Replay.Match})
	}
	if tr != nil {
		tr.end(wait)
	}
	return out, nil
}

// decompose replays every journal in-process through the detector the
// daemon's replay job builds (harness.DetectorFor + journal.Replay),
// with that detector timed. The daemon's job internals cannot be
// wrapped from outside, so this pass, run after the traced op and
// outside its latency, is where the journal decode and core split of
// the replay-service workload comes from.
func (r *replaySvc) decompose(tr *tracer, c *opCounters) ([]outcome, error) {
	root := tr.begin("decompose", -1)
	defer tr.end(root)
	out := make([]outcome, 0, len(r.names))
	for i, name := range r.names {
		det, err := harness.DetectorFor(r.meta[i])
		if err != nil {
			return nil, err
		}
		td := newTimedDetector(det)
		s := time.Now()
		res, err := journal.Replay(bytes.NewReader(r.journals[i]), td)
		d := time.Since(s)
		if err != nil {
			return nil, fmt.Errorf("replaying %s: %w", name, err)
		}
		j := tr.add("journal", root, s, d, 1)
		tr.add("core", j, s, td.busy(), td.calls)
		match := res.Match
		o := outcome{bench: name, races: res.Replayed, match: &match}
		if cd, ok := det.(*core.Detector); ok {
			st := cd.Stats()
			o.checks = st.SharedChecks + st.GlobalChecks
		}
		c.addDetector(td)
		c.addOutcome(o)
		out = append(out, o)
	}
	return out, nil
}

// prune removes the journals of the jobs the last op submitted from
// the spool. Each job has reached a terminal state by then, and the
// daemon reads a journal only to run its job.
func (r *replaySvc) prune() {
	for _, id := range r.done {
		// A journal left behind costs only disk until close removes the spool.
		_ = os.Remove(r.srv.JournalPath(id))
	}
	r.done = r.done[:0]
}

// rejected is how many submissions the daemon refused (queue full,
// quota, draining) since it started.
func (r *replaySvc) rejected() int64 {
	st := r.srv.Stats()
	return st.Rejected.QueueFull + st.Rejected.Quota + st.Rejected.Draining
}

// close stops the HTTP server and the daemon, and removes the spool.
func (r *replaySvc) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	<-r.served
	r.srv.Drain(ctx)
	r.transport.CloseIdleConnections()
	if rerr := os.RemoveAll(r.dir); err == nil {
		err = rerr
	}
	return err
}
