package chaos

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// HTTP fault clause kinds. Schedules use the same spec grammar as the
// filesystem schedule ("reset:nth=2;burst503:from=3,count=4") with the
// clause set the service client's failure handling must survive:
//
//	reset:nth=N[,path=p]          Nth matching request fails at the
//	                              transport (connection reset)
//	burst503:from=N,count=M[...]  matching requests N..N+M-1 get a
//	                              synthesized 503 + Retry-After
//	stall:nth=N[,path=p]          Nth matching response's body hangs
//	                              until the request context ends
//	corrupt:nth=N[,path=p]        Nth matching response body is
//	                              truncated mid-JSON
const (
	KindReset    = "reset"
	KindBurst503 = "burst503"
	KindStall    = "stall"
	KindCorrupt  = "corrupt"
)

// HTTPClause is one scheduled HTTP fault. Path matches the request
// URL's path by substring (empty = all requests); counters are
// per-clause over matching requests, 1-based.
type HTTPClause struct {
	Kind  string
	Path  string
	Nth   int // reset/stall/corrupt: which matching request fires
	From  int // burst503: first matching request of the burst
	Count int // burst503: burst length

	seen int
}

// String renders the clause in canonical spec form.
func (c *HTTPClause) String() string {
	var parts []string
	if c.Path != "" {
		parts = append(parts, "path="+c.Path)
	}
	if c.Kind == KindBurst503 {
		parts = append(parts, "from="+strconv.Itoa(c.From), "count="+strconv.Itoa(c.Count))
	} else if c.Nth != 1 {
		parts = append(parts, "nth="+strconv.Itoa(c.Nth))
	}
	if len(parts) == 0 {
		return c.Kind
	}
	return c.Kind + ":" + strings.Join(parts, ",")
}

func (c *HTTPClause) validate() error {
	switch c.Kind {
	case KindReset, KindStall, KindCorrupt:
		if c.Nth < 1 {
			return fmt.Errorf("chaos: http clause %s: nth must be >= 1", c.Kind)
		}
	case KindBurst503:
		if c.From < 1 || c.Count < 1 {
			return fmt.Errorf("chaos: burst503 clause needs from>=1 and count>=1")
		}
	default:
		return fmt.Errorf("chaos: unknown http fault clause kind %q", c.Kind)
	}
	return nil
}

// fires says whether this matching request (1-based index n) is hit.
func (c *HTTPClause) fires(n int) bool {
	if c.Kind == KindBurst503 {
		return n >= c.From && n < c.From+c.Count
	}
	return n == c.Nth
}

// HTTPSchedule is an ordered set of HTTP fault clauses.
type HTTPSchedule struct {
	Clauses []*HTTPClause
}

// ParseHTTPSchedule parses an HTTP fault schedule spec; "" is the
// fault-free schedule.
func ParseHTTPSchedule(spec string) (*HTTPSchedule, error) {
	cs, err := parseClauses(spec, "http clause", func(kind string) *HTTPClause { return &HTTPClause{Kind: kind, Nth: 1} })
	if err != nil {
		return nil, err
	}
	return &HTTPSchedule{Clauses: cs}, nil
}

// set applies one key=value param of an HTTP clause.
func (c *HTTPClause) set(k, v string) (err error) {
	switch k {
	case "path":
		c.Path = v
	case "nth":
		c.Nth, err = strconv.Atoi(v)
	case "from":
		c.From, err = strconv.Atoi(v)
	case "count":
		c.Count, err = strconv.Atoi(v)
	default:
		return fmt.Errorf("unknown param %q", k)
	}
	if err != nil {
		return fmt.Errorf("%s: %v", k, err)
	}
	return nil
}

// String renders the schedule in canonical spec form.
func (s *HTTPSchedule) String() string {
	if s == nil || len(s.Clauses) == 0 {
		return ""
	}
	parts := make([]string, len(s.Clauses))
	for i, c := range s.Clauses {
		parts[i] = c.String()
	}
	return strings.Join(parts, ";")
}

func (s *HTTPSchedule) clone() *HTTPSchedule {
	out := &HTTPSchedule{Clauses: make([]*HTTPClause, len(s.Clauses))}
	for i, c := range s.Clauses {
		cc := *c
		cc.seen = 0
		out.Clauses[i] = &cc
	}
	return out
}

// FaultTransport is an http.RoundTripper that injects scheduled faults
// between a service.Client and its daemon. Deterministic: per-clause
// request counters decide what fires, never randomness.
type FaultTransport struct {
	inner http.RoundTripper

	mu    sync.Mutex
	sched *HTTPSchedule
	fired []string
}

// NewFaultTransport wraps inner (http.DefaultTransport when nil) with
// the fault schedule. The schedule's counters are private to this
// transport.
func NewFaultTransport(inner http.RoundTripper, sched *HTTPSchedule) *FaultTransport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	if sched == nil {
		sched = &HTTPSchedule{}
	}
	return &FaultTransport{inner: inner, sched: sched.clone()}
}

// Fired returns the log of fired faults in firing order.
func (t *FaultTransport) Fired() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.fired...)
}

// RoundTrip implements http.RoundTripper. The first clause that fires
// on a request owns it; every matching clause still counts the request
// so schedules compose predictably.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	t.mu.Lock()
	var hit *HTTPClause
	for _, c := range t.sched.Clauses {
		if c.Path != "" && !strings.Contains(path, c.Path) {
			continue
		}
		c.seen++
		if hit == nil && c.fires(c.seen) {
			hit = c
			t.fired = append(t.fired, fmt.Sprintf("%s fired on %s %s", c, req.Method, path))
		}
	}
	t.mu.Unlock()
	if hit == nil {
		return t.inner.RoundTrip(req)
	}

	switch hit.Kind {
	case KindReset:
		return nil, fmt.Errorf("%w: connection reset by peer: %s %s", ErrInjected, req.Method, path)
	case KindBurst503:
		body := `{"error":"chaos: injected 503"}`
		return &http.Response{
			StatusCode: http.StatusServiceUnavailable,
			Status:     "503 Service Unavailable",
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: http.Header{
				"Content-Type": []string{"application/json"},
				"Retry-After":  []string{"0"},
			},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	case KindStall:
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		// The headers arrive; the body never does. The reader hangs
		// until the request context ends — exactly the failure a client
		// with no read deadline would hang on forever.
		resp.Body.Close()
		resp.Body = &stalledBody{ctx: req.Context()}
		resp.ContentLength = -1
		return resp, nil
	case KindCorrupt:
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		// Truncate mid-payload: syntactically broken JSON the decoder
		// must reject, not quietly mis-parse.
		cut := data[:len(data)/2]
		resp.Body = io.NopCloser(bytes.NewReader(cut))
		resp.ContentLength = int64(len(cut))
		return resp, nil
	}
	return t.inner.RoundTrip(req)
}

// stalledBody blocks every Read until the request context ends.
type stalledBody struct {
	ctx context.Context
}

func (b *stalledBody) Read(p []byte) (int, error) {
	<-b.ctx.Done()
	return 0, fmt.Errorf("%w: stalled body: %v", ErrInjected, b.ctx.Err())
}

func (b *stalledBody) Close() error { return nil }
