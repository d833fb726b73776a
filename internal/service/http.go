package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"haccrg/internal/harness"
	"haccrg/internal/version"
)

// maxJournalBytes bounds an uploaded replay journal. Larger uploads
// are rejected with 413 instead of filling the spool disk.
const maxJournalBytes = 256 << 20

// TenantHeader names the request header carrying the tenant identity.
// When absent, a Bearer token in Authorization identifies the tenant;
// with neither, the request is billed to the shared "anonymous"
// tenant (which has the same quotas as everyone else — no free tier).
const TenantHeader = "X-Haccrg-Tenant"

// requestTenant extracts the tenant identity from a request.
func requestTenant(r *http.Request) string {
	if t := strings.TrimSpace(r.Header.Get(TenantHeader)); t != "" {
		return t
	}
	if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
		if t := strings.TrimSpace(strings.TrimPrefix(auth, "Bearer ")); t != "" {
			return t
		}
	}
	return "anonymous"
}

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after_seconds,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeAdmissionError maps an admission failure to its HTTP shape:
// 400 for bad specs, 429 + Retry-After for quota and queue pressure,
// 503 + Retry-After while draining.
func writeAdmissionError(w http.ResponseWriter, retryAfter time.Duration, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQuota), errors.Is(err, ErrConcurrency):
		code = http.StatusTooManyRequests
	}
	secs := 0
	if retryAfter > 0 {
		secs = int((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, code, apiError{Error: err.Error(), RetryAfter: secs})
}

// submitResponse acknowledges an accepted job.
type submitResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/jobs/bench     submit a benchmark job (JSON JobSpec body)
//	POST /v1/jobs/analyze   submit a static-analysis job (JSON JobSpec body)
//	POST /v1/jobs/replay    submit a replay job (body = journal bytes;
//	                        ?detector= overrides the journaled detector)
//	GET  /v1/jobs           list this tenant's jobs
//	GET  /v1/jobs/{id}      one job's status (404 across tenants)
//	GET  /v1/benches        the benchmark suite
//	GET  /healthz           process liveness (always 200 while serving)
//	GET  /readyz            admission readiness (503 while draining)
//	GET  /statsz            queue, tenant, cache, and health counters
//
// Submissions are acknowledged with 202 and a job ID once the job is
// durably spooled; saturation and quota exhaustion answer 429 with
// Retry-After, and a draining daemon answers 503.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	submitJSON := func(kind JobKind) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			var spec JobSpec
			dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&spec); err != nil {
				writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("decoding job spec: %v", err)})
				return
			}
			spec.Kind = kind
			id, retry, err := s.Submit(requestTenant(r), &spec)
			if err != nil {
				writeAdmissionError(w, retry, err)
				return
			}
			writeJSON(w, http.StatusAccepted, submitResponse{ID: id, State: StateQueued})
		}
	}
	mux.HandleFunc("POST /v1/jobs/bench", submitJSON(JobBench))
	mux.HandleFunc("POST /v1/jobs/analyze", submitJSON(JobAnalyze))

	mux.HandleFunc("POST /v1/jobs/replay", func(w http.ResponseWriter, r *http.Request) {
		spec := JobSpec{Kind: JobReplay}
		spec.Detector = harness.DetectorKind(r.URL.Query().Get("detector"))
		if ms := r.URL.Query().Get("timeout_ms"); ms != "" {
			v, err := strconv.ParseInt(ms, 10, 64)
			if err != nil || v < 0 {
				writeJSON(w, http.StatusBadRequest, apiError{Error: "invalid timeout_ms"})
				return
			}
			spec.TimeoutMS = v
		}
		body := http.MaxBytesReader(w, r.Body, maxJournalBytes)
		id, retry, err := s.SubmitReplay(requestTenant(r), &spec, body)
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeJSON(w, http.StatusRequestEntityTooLarge,
					apiError{Error: fmt.Sprintf("journal exceeds %d bytes", tooBig.Limit)})
				return
			}
			writeAdmissionError(w, retry, err)
			return
		}
		writeJSON(w, http.StatusAccepted, submitResponse{ID: id, State: StateQueued})
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs(requestTenant(r)))
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		st, ok := s.Job(id)
		// Cross-tenant probes get the same 404 as missing jobs: job IDs
		// are not enumerable across tenants.
		if !ok || st.Tenant != requestTenant(r) {
			writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("unknown job %q", id)})
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /v1/benches", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"benches": BenchNames()})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "version": version.Version})
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			w.Header().Set("Retry-After", "10")
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})

	mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})

	return mux
}
