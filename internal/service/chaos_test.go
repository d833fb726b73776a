package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestClientCancelMidBackoff pins the retry loop's context contract:
// when the caller cancels while the client is sleeping out a backoff,
// the call must return promptly with the context error wrapped (so
// errors.Is sees context.Canceled), not sit out the full backoff.
func TestClientCancelMidBackoff(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer hs.Close()

	cl := &Client{
		BaseURL:     hs.URL,
		MaxAttempts: 5,
		BaseBackoff: time.Hour, // without prompt cancellation the test times out
		// sleep deliberately nil: the real timer path is under test.
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond) // let the first 503 land and backoff start
		cancel()
	}()
	start := time.Now()
	_, err := cl.Submit(ctx, analyzeSpec())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Submit succeeded against an always-503 server")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(err, context.Canceled)", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Submit took %v to notice cancellation; the backoff sleep is not context-aware", elapsed)
	}
}

// TestSpoolRecoveryFIFO pins satellite: recovery re-admits unfinished
// jobs in original submission order (ascending Seq), not directory
// order. The IDs are chosen so lexicographic directory order is the
// exact reverse of admission order.
func TestSpoolRecoveryFIFO(t *testing.T) {
	dir := t.TempDir()
	sp, err := openSpool(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"jzz", "jmm", "jaa"} // admission order; glob order is jaa,jmm,jzz
	for i, id := range ids {
		if err := sp.putSpec(id, int64(i+1), "t", time.Time{}, analyzeSpec()); err != nil {
			t.Fatal(err)
		}
	}
	entries, skipped, err := sp.load()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped %v", skipped)
	}
	if len(entries) != len(ids) {
		t.Fatalf("loaded %d entries, want %d", len(entries), len(ids))
	}
	for i, e := range entries {
		if e.ID != ids[i] {
			t.Fatalf("entry %d = %s, want %s (submission order, not directory order)", i, e.ID, ids[i])
		}
	}
}

// TestServerRecoveryFIFO drives the same contract end to end: jobs
// submitted to a daemon that never ran them come back, in order, on a
// fresh daemon over the same spool — and the seq counter resumes past
// the recovered jobs so new admissions sort after them.
func TestServerRecoveryFIFO(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Server {
		s, err := New(Config{DataDir: dir, SmallGPU: true, Tenant: openTenants, Log: testLogger(t)})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := mk() // workers never started: everything stays queued
	var acked []string
	for i := 0; i < 5; i++ {
		id, _, err := s1.Submit("t", analyzeSpec())
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		acked = append(acked, id)
	}

	s2 := mk()
	rec := s2.RecoveredOrder()
	if len(rec) != len(acked) {
		t.Fatalf("recovered %d jobs %v, want %d %v", len(rec), rec, len(acked), acked)
	}
	for i := range acked {
		if rec[i] != acked[i] {
			t.Fatalf("recovery order %v diverges from submission order %v at %d", rec, acked, i)
		}
	}
	// New admissions must sort after every recovered job on the next
	// recovery — the counter may not restart at 1.
	late, _, err := s2.Submit("t", analyzeSpec())
	if err != nil {
		t.Fatal(err)
	}
	s3 := mk()
	rec3 := s3.RecoveredOrder()
	if len(rec3) != len(acked)+1 || rec3[len(rec3)-1] != late {
		t.Fatalf("post-recovery admission %s must recover last: %v", late, rec3)
	}
}
