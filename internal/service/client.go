package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client talks to a haccrg daemon, absorbing its backpressure: 429 and
// 503 responses (and transport errors) are retried with exponential
// backoff plus jitter, and a server-provided Retry-After always wins
// over the computed backoff. Bodies are buffered before sending so a
// retry replays identical bytes.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Tenant is sent as the tenant identity header ("" = anonymous).
	Tenant string
	// HTTPClient overrides the transport (nil = a client with a 30s
	// request timeout).
	HTTPClient *http.Client
	// MaxAttempts bounds retries per call (default 8).
	MaxAttempts int
	// BaseBackoff seeds the exponential schedule (default 250ms).
	BaseBackoff time.Duration

	// sleep is injectable for tests; nil honors real time.
	sleep func(ctx context.Context, d time.Duration) error
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (c *Client) attempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 8
}

func (c *Client) backoff(attempt int) time.Duration {
	base := c.BaseBackoff
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	d := base << uint(attempt)
	if max := 15 * time.Second; d > max {
		d = max
	}
	// Full jitter: spread retries over [d/2, d] so a herd of clients
	// released by the same 429 does not re-saturate the queue in step.
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

func (c *Client) wait(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryable says whether a response status is worth another attempt.
func retryable(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// retryAfter extracts the server's Retry-After hint, if any.
func retryAfter(resp *http.Response) (time.Duration, bool) {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second, true
		}
	}
	return 0, false
}

// do sends one request (re-built per attempt from body bytes) until it
// gets a non-retryable response or runs out of attempts.
func (c *Client) do(ctx context.Context, method, path string, body []byte, hdr http.Header) (*http.Response, error) {
	var lastErr error
	for attempt := 0; attempt < c.attempts(); attempt++ {
		if attempt > 0 {
			d := c.backoff(attempt - 1)
			if lastResp, ok := lastErr.(*retryAfterError); ok && lastResp.after > 0 {
				d = lastResp.after
			}
			if err := c.wait(ctx, d); err != nil {
				return nil, fmt.Errorf("service client: %s %s: %w (last: %v)", method, path, err, lastErr)
			}
		}
		req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(c.BaseURL, "/")+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		for k, vs := range hdr {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
		if c.Tenant != "" {
			req.Header.Set(TenantHeader, c.Tenant)
		}
		resp, err := c.http().Do(req)
		if err != nil {
			// Transport failure (daemon restarting, connection refused):
			// retryable.
			lastErr = err
			continue
		}
		if retryable(resp.StatusCode) {
			ra, _ := retryAfter(resp)
			msg := readAPIError(resp)
			resp.Body.Close()
			lastErr = &retryAfterError{status: resp.StatusCode, msg: msg, after: ra}
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("service client: %s %s: gave up after %d attempts: %v", method, path, c.attempts(), lastErr)
}

type retryAfterError struct {
	status int
	msg    string
	after  time.Duration
}

func (e *retryAfterError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.status, e.msg)
}

// readAPIError pulls the error envelope out of a failed response.
func readAPIError(resp *http.Response) string {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var ae apiError
	if json.Unmarshal(data, &ae) == nil && ae.Error != "" {
		return ae.Error
	}
	return strings.TrimSpace(string(data))
}

// decode reads a JSON success body, converting non-2xx into errors.
func decode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("service client: HTTP %d: %s", resp.StatusCode, readAPIError(resp))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Submit sends a bench or analyze job and returns its ID.
func (c *Client) Submit(ctx context.Context, spec *JobSpec) (string, error) {
	var path string
	switch spec.Kind {
	case JobBench:
		path = "/v1/jobs/bench"
	case JobAnalyze:
		path = "/v1/jobs/analyze"
	default:
		return "", fmt.Errorf("service client: Submit does not handle kind %q", spec.Kind)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	hdr := http.Header{"Content-Type": []string{"application/json"}}
	resp, err := c.do(ctx, http.MethodPost, path, body, hdr)
	if err != nil {
		return "", err
	}
	var sr submitResponse
	if err := decode(resp, &sr); err != nil {
		return "", err
	}
	return sr.ID, nil
}

// SubmitReplay uploads a journal (fully buffered so retries replay the
// same bytes) and returns the replay job's ID.
func (c *Client) SubmitReplay(ctx context.Context, journal []byte, detector string) (string, error) {
	path := "/v1/jobs/replay"
	if detector != "" {
		path += "?detector=" + detector
	}
	resp, err := c.do(ctx, http.MethodPost, path, journal,
		http.Header{"Content-Type": []string{"application/octet-stream"}})
	if err != nil {
		return "", err
	}
	var sr submitResponse
	if err := decode(resp, &sr); err != nil {
		return "", err
	}
	return sr.ID, nil
}

// Status fetches one job's status.
func (c *Client) Status(ctx context.Context, id string) (*JobStatus, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, nil)
	if err != nil {
		return nil, err
	}
	var st JobStatus
	if err := decode(resp, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// terminal says whether a job state is final for this daemon process.
// An interrupted job will resume after a restart, but from this
// client's perspective the wait is over.
func terminal(state string) bool {
	switch state {
	case StateDone, StateFailed, StateInterrupted:
		return true
	}
	return false
}

// Wait polls a job until it reaches a terminal state or ctx ends.
func (c *Client) Wait(ctx context.Context, id string) (*JobStatus, error) {
	delay := 100 * time.Millisecond
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return nil, err
		}
		if terminal(st.State) {
			return st, nil
		}
		if err := c.wait(ctx, delay); err != nil {
			return st, err
		}
		if delay < 2*time.Second {
			delay *= 2
		}
	}
}
