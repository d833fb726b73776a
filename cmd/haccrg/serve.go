package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"haccrg/internal/service"
	"haccrg/internal/version"
)

// serveMain runs race detection as a service: an HTTP+JSON daemon that
// accepts benchmark jobs, uploaded event journals and static-analysis
// requests, and executes them on the same harness job core as every
// other mode.
//
// The daemon is built to be leaned on: a bounded queue with explicit
// admission control (saturation answers 429 + Retry-After, memory
// stays bounded), per-tenant token-bucket quotas and concurrency caps,
// per-job deadlines, panic-isolated workers, a content-addressed cache
// of static-analysis reports, and graceful drain — SIGTERM stops
// admission, lets in-flight jobs finish inside the drain window, and
// checkpoints whatever is still running through the sweep-manifest
// resume path so a restarted daemon completes them byte-identically.
// A clean drain exits 0; one that left resumable state in the spool
// exits 5.
func serveMain(args []string) int {
	fs := flag.NewFlagSet("haccrg serve", flag.ExitOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8321", "listen address")
		dataDir      = fs.String("data", "", "durable data directory (job spool, manifests, journals); required")
		queueDepth   = fs.Int("queue", 64, "admission queue depth (full queue answers 429)")
		workers      = fs.Int("workers", 0, "concurrent job executors, each sweeping one run at a time (0 = GOMAXPROCS)")
		tenantRate   = fs.Float64("tenant-rate", 5, "per-tenant sustained admissions per second (0 disables)")
		tenantBurst  = fs.Int("tenant-burst", 10, "per-tenant admission burst")
		tenantConc   = fs.Int("tenant-concurrent", 4, "per-tenant concurrent-job cap (0 = unlimited)")
		deadline     = fs.Duration("deadline", 5*time.Minute, "default per-job deadline")
		maxDeadline  = fs.Duration("max-deadline", 30*time.Minute, "hard cap on requested per-job deadlines")
		cacheEntries = fs.Int("cache", 128, "static-analysis report cache entries")
		smallGPU     = fs.Bool("small-gpu", false, "force every job onto the 4-SM test device")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long a shutdown signal lets in-flight jobs finish before checkpointing them")
	)
	fs.Parse(args)
	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "haccrg: -data is required")
		fs.Usage()
		return exitUsage
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	srv, err := service.New(service.Config{
		DataDir:    *dataDir,
		QueueDepth: *queueDepth,
		Workers:    *workers,
		Tenant: service.TenantConfig{
			Rate: *tenantRate, Burst: *tenantBurst, MaxConcurrent: *tenantConc,
		},
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		CacheEntries:    *cacheEntries,
		SmallGPU:        *smallGPU,
		Log:             logger,
	})
	if err != nil {
		logger.Print(errLine("", err))
		return exitError
	}
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Print(errLine("", err))
		return exitError
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	logger.Printf("haccrg serve %s listening on %s (data %s, queue %d, workers auto=%d)",
		version.Version, ln.Addr(), *dataDir, *queueDepth, *workers)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signalContext()
	defer stop()
	select {
	case <-ctx.Done():
		logger.Printf("haccrg: shutdown signal: draining (window %s)", *drainTimeout)
	case err := <-serveErr:
		logger.Print(errLine("serve", err))
		return exitError
	}

	// Readiness flips first so load balancers stop routing here, then
	// the drain window runs, then the listener closes.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	rep := srv.Drain(drainCtx)
	cancel()

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Print(errLine("shutdown", err))
	}
	cancel()

	if rep.Interrupted > 0 || rep.Requeued > 0 {
		logger.Printf("haccrg: exiting with resumable state (%d interrupted, %d queued); restart with the same -data to finish",
			rep.Interrupted, rep.Requeued)
		return exitInterrupted
	}
	logger.Printf("haccrg: clean exit")
	return exitOK
}
