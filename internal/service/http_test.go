package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"haccrg"
)

func newHTTPServer(t *testing.T, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, mod)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

func postJSON(t *testing.T, url string, tenant string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPSubmitAndStatus(t *testing.T) {
	s, hs := newHTTPServer(t, nil)
	s.Start()
	defer s.Drain(expiredCtx(t))

	resp := postJSON(t, hs.URL+"/v1/jobs/analyze", "alice", analyzeSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", resp.StatusCode)
	}
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sr.ID == "" {
		t.Fatal("submit response has no job ID")
	}

	// The submitting tenant sees the job; another tenant gets the same
	// 404 a missing job would.
	for tenant, want := range map[string]int{"alice": 200, "mallory": 404} {
		req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/jobs/"+sr.ID, nil)
		req.Header.Set(TenantHeader, tenant)
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Fatalf("GET job as %s: HTTP %d, want %d", tenant, r.StatusCode, want)
		}
	}

	cl := &Client{BaseURL: hs.URL, Tenant: "alice"}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := cl.Wait(ctx, sr.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}
}

func TestHTTPBadSpecIs400(t *testing.T) {
	s, hs := newHTTPServer(t, nil)
	defer s.Drain(expiredCtx(t))
	resp := postJSON(t, hs.URL+"/v1/jobs/bench", "t", map[string]any{"benches": []string{"no-such"}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestHTTPRemovedEngineFieldsAre400: the bench API decodes specs with
// DisallowUnknownFields, so the removed detector-engine fields are
// rejected rather than silently ignored.
func TestHTTPRemovedEngineFieldsAre400(t *testing.T) {
	s, hs := newHTTPServer(t, nil)
	defer s.Drain(expiredCtx(t))
	for _, field := range []string{"detect_parallel", "detect_parallel_shared", "sentinel_every"} {
		var v any = true
		if field == "sentinel_every" {
			v = 1
		}
		resp := postJSON(t, hs.URL+"/v1/jobs/bench", "t", map[string]any{"benches": []string{"psum"}, field: v})
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec with %s: HTTP %d, want 400", field, resp.StatusCode)
		}
	}
}

func TestHTTPQueueFullIs429(t *testing.T) {
	s, hs := newHTTPServer(t, func(c *Config) { c.QueueDepth = 1 })
	defer s.Drain(expiredCtx(t)) // workers never started: first job occupies the queue
	if resp := postJSON(t, hs.URL+"/v1/jobs/analyze", "t", analyzeSpec()); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", resp.StatusCode)
	}
	resp := postJSON(t, hs.URL+"/v1/jobs/analyze", "t", analyzeSpec())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After")
	}
}

func TestHTTPQuotaIs429(t *testing.T) {
	s, hs := newHTTPServer(t, func(c *Config) {
		c.Tenant = TenantConfig{Rate: 0.001, Burst: 1, MaxConcurrent: 100}
		c.QueueDepth = 16
	})
	defer s.Drain(expiredCtx(t))
	if resp := postJSON(t, hs.URL+"/v1/jobs/analyze", "greedy", analyzeSpec()); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", resp.StatusCode)
	}
	resp := postJSON(t, hs.URL+"/v1/jobs/analyze", "greedy", analyzeSpec())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota 429 carries no Retry-After")
	}
	// A different tenant is not starved by the greedy one.
	if resp := postJSON(t, hs.URL+"/v1/jobs/analyze", "patient", analyzeSpec()); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant: HTTP %d, want 202", resp.StatusCode)
	}
}

func TestHTTPReadyzFlipsWhileDraining(t *testing.T) {
	s, hs := newHTTPServer(t, nil)
	s.Start()
	check := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: HTTP %d, want %d", path, resp.StatusCode, want)
		}
	}
	check("/healthz", 200)
	check("/readyz", 200)
	s.Drain(expiredCtx(t))
	check("/healthz", 200) // the process is alive even while refusing work
	check("/readyz", http.StatusServiceUnavailable)
	resp := postJSON(t, hs.URL+"/v1/jobs/analyze", "t", analyzeSpec())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, want 503", resp.StatusCode)
	}
}

func TestHTTPStatsz(t *testing.T) {
	s, hs := newHTTPServer(t, nil)
	s.Start()
	defer s.Drain(expiredCtx(t))
	cl := &Client{BaseURL: hs.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	id, err := cl.Submit(ctx, analyzeSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := cl.Wait(ctx, id); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	resp, err := http.Get(hs.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := decode(resp, &st); err != nil {
		t.Fatalf("GET /statsz: %v", err)
	}
	if st.Accepted != 1 || st.Completed != 1 {
		t.Fatalf("stats accepted/completed = %d/%d, want 1/1", st.Accepted, st.Completed)
	}
	if st.QueueCap == 0 || st.Workers == 0 {
		t.Fatalf("stats missing capacity figures: %+v", st)
	}
	if _, ok := st.Tenants["anonymous"]; !ok {
		t.Fatal("stats missing the anonymous tenant")
	}
}

// TestReplayRoundTrip records a live run's journal through the facade,
// uploads it, and checks the daemon replays it to the recorded verdict.
func TestReplayRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	cfg := haccrg.SmallGPU()
	d := haccrg.DefaultDetection()
	_, err := haccrg.RunBenchmark("psum", haccrg.RunOptions{
		GPU: &cfg, Detection: &d, Inject: []string{"psum.fence0"}, Record: &buf,
	})
	if err != nil {
		t.Fatalf("recording run: %v", err)
	}

	s, hs := newHTTPServer(t, nil)
	s.Start()
	defer s.Drain(expiredCtx(t))
	cl := &Client{BaseURL: hs.URL, Tenant: "t"}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	id, err := cl.SubmitReplay(ctx, buf.Bytes(), "")
	if err != nil {
		t.Fatalf("SubmitReplay: %v", err)
	}
	st, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("replay job state = %s (%s), want done", st.State, st.Error)
	}
	if st.Replay == nil {
		t.Fatal("replay job has no summary")
	}
	if st.Replay.Match == nil || !*st.Replay.Match {
		t.Fatalf("replayed verdict does not match the recorded one: %+v", st.Replay)
	}
	if len(st.Replay.Races) == 0 {
		t.Fatal("injected psum.fence0 replayed with no races")
	}
}

func TestClientRetriesHonorRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var slept []time.Duration
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"saturated"}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"j1","state":"queued"}`)
	})
	hs := httptest.NewServer(h)
	defer hs.Close()
	cl := &Client{
		BaseURL: hs.URL,
		sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	id, err := cl.Submit(context.Background(), analyzeSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if id != "j1" {
		t.Fatalf("Submit id = %q, want j1", id)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2", calls.Load())
	}
	if len(slept) != 1 || slept[0] != 7*time.Second {
		t.Fatalf("client slept %v, want exactly the server's 7s Retry-After", slept)
	}
}

func TestClientGivesUpEventually(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer hs.Close()
	cl := &Client{
		BaseURL:     hs.URL,
		MaxAttempts: 3,
		sleep:       func(ctx context.Context, d time.Duration) error { return nil },
	}
	_, err := cl.Submit(context.Background(), analyzeSpec())
	if err == nil || !strings.Contains(err.Error(), "gave up after 3 attempts") {
		t.Fatalf("Submit err = %v, want exhausted retries", err)
	}
}

// TestReplaySeededRoundTrip: a witness-seeded recording reports some
// races with StaticWitness provenance; the daemon's replay job rebuilds
// the detector with the journal's seed set and reaches the recorded
// verdict.
func TestReplaySeededRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	cfg := haccrg.SmallGPU()
	d := haccrg.DefaultDetection()
	res, err := haccrg.RunBenchmark("scan", haccrg.RunOptions{
		GPU: &cfg, Detection: &d, WitnessSeed: true, Record: &buf,
	})
	if err != nil {
		t.Fatalf("recording run: %v", err)
	}
	seeded := 0
	for _, r := range res.Races {
		if r.Provenance == "StaticWitness" {
			seeded++
		}
	}
	if seeded == 0 {
		t.Fatal("seeded scan run reported no StaticWitness races")
	}

	s, hs := newHTTPServer(t, nil)
	s.Start()
	defer s.Drain(expiredCtx(t))
	cl := &Client{BaseURL: hs.URL, Tenant: "t"}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	id, err := cl.SubmitReplay(ctx, buf.Bytes(), "")
	if err != nil {
		t.Fatalf("SubmitReplay: %v", err)
	}
	st, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != StateDone || st.Replay == nil {
		t.Fatalf("replay job state = %s (%s), summary %+v", st.State, st.Error, st.Replay)
	}
	if st.Replay.Match == nil || !*st.Replay.Match {
		t.Fatalf("seeded replay does not match the recorded verdict: %d race(s) replayed", len(st.Replay.Races))
	}
}
