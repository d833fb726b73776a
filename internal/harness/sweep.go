package harness

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The sweep engine: every experiment driver enumerates its RunConfigs
// up front and hands them to Sweep.Run, which fans them across a
// bounded worker pool. Each run owns its Device and Detector, so runs
// share no mutable state; results are assembled in input order, which
// keeps every table and figure byte-identical at any worker count —
// the determinism invariant the harness tests enforce.

// A Sweep is the state a sweep runs under, passed by value to every
// experiment driver that simulates (they are its methods). The zero
// value sweeps under context.Background(), with no manifest and no
// guard rails, on GOMAXPROCS workers.
type Sweep struct {
	// Ctx cancels every run of the sweep, in flight or queued
	// (nil = context.Background()).
	Ctx context.Context
	// Manifest, when set, gets each completed run appended (and
	// synced) before the run is returned, and serves the runs it
	// already holds instead of re-simulating them: the crash-safe
	// resume path.
	Manifest *Manifest

	// MaxCycles and Timeout are the guard rails merged into every run
	// whose own config leaves them unset; the merged config is the
	// run's manifest key.
	MaxCycles int64
	Timeout   time.Duration

	// Workers bounds the concurrent runs (0 = GOMAXPROCS).
	// Output is byte-identical at any count.
	Workers int
}

func (s Sweep) context() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// workers resolves the worker count (always >= 1).
func (s Sweep) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return max(runtime.GOMAXPROCS(0), 1)
}

// withDefaults returns rc with the sweep's guard rails merged in: the
// form under which the sweep keys its manifest.
func (s Sweep) withDefaults(rc RunConfig) RunConfig {
	if rc.MaxCycles == 0 {
		rc.MaxCycles = s.MaxCycles
	}
	if rc.Timeout == 0 {
		rc.Timeout = s.Timeout
	}
	return rc
}

// Lookup returns the result the sweep's manifest holds for rc, under
// the key the sweep would append it with; false without a manifest.
func (s Sweep) Lookup(rc RunConfig) (*RunResult, bool) {
	if s.Manifest == nil {
		return nil, false
	}
	return s.Manifest.Lookup(s.withDefaults(rc))
}

// sweepExecutions counts actual simulations (manifest hits excluded);
// the resume tests use it to prove completed runs are not re-run.
var sweepExecutions atomic.Int64

// Run runs every configuration across the worker pool and returns the
// results in input order. The first failure cancels the remaining
// runs, and the lowest-index real error (not a cancellation casualty)
// is returned, so the reported error does not depend on goroutine
// timing: at one worker it is the first failing configuration in input
// order; at several, the lowest-index failure among the configurations
// that actually ran. Results are byte-identical at any worker count.
func (s Sweep) Run(cfgs []RunConfig) ([]*RunResult, error) {
	ctx := s.context()
	n := len(cfgs)
	results := make([]*RunResult, n)
	workers := min(s.workers(), n)

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				r, err := s.runOne(ctx, cfgs[i])
				if err != nil {
					errs[i] = err
					cancel() // first failure stops the sweep
					continue
				}
				results[i] = r
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()

	// Prefer the lowest-index genuine failure; cancellation errors are
	// secondary casualties of it.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	// The caller's context was cancelled before any run could fail on
	// its own: surface that instead of a result slice with holes.
	if err := parent.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// runOne runs one configuration of the sweep under ctx, once: it
// merges the sweep's guard rails, serves the run from the manifest when
// it holds it, and otherwise executes it and appends the result. A run
// is a deterministic function of its merged config, fault seed
// included, so its failures are returned as they are. A run that
// cancellation cuts short returns a *gpu.HangError, which unwraps to
// the context's error, so callers classify it as an interruption.
func (s Sweep) runOne(ctx context.Context, rc RunConfig) (*RunResult, error) {
	rc = s.withDefaults(rc)
	if s.Manifest != nil {
		if res, ok := s.Manifest.Lookup(rc); ok {
			return res, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sweepExecutions.Add(1)
	res, err := ExecContext(ctx, rc, ExecOptions{})
	if err != nil {
		return nil, err
	}
	if s.Manifest != nil {
		if err := s.Manifest.Append(rc, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}
