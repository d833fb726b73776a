package main

import (
	"errors"
	"strings"
	"testing"

	"haccrg"
)

// TestErrLineSinglePrefix: every error line carries exactly one
// "haccrg: " prefix, whether or not the error came from the facade.
func TestErrLineSinglePrefix(t *testing.T) {
	_, facadeErr := haccrg.RunBenchmark("nosuch", haccrg.RunOptions{})
	if facadeErr == nil {
		t.Fatal("unknown benchmark ran")
	}
	cases := []struct {
		what string
		err  error
		want string
	}{
		{"", facadeErr, "haccrg: unknown benchmark \"nosuch\""},
		{"psum", facadeErr, "haccrg: psum: unknown benchmark \"nosuch\""},
		{"", errors.New("harness: static analysis of psum: boom"), "haccrg: harness: static analysis of psum: boom"},
		{"-record", errors.New("journal: create x.jnl: denied"), "haccrg: -record: journal: create x.jnl: denied"},
	}
	for _, c := range cases {
		got := errLine(c.what, c.err)
		if !strings.HasPrefix(got, c.want) {
			t.Errorf("errLine(%q, %q) = %q, want prefix %q", c.what, c.err, got, c.want)
		}
		if n := strings.Count(got, "haccrg: "); n != 1 {
			t.Errorf("errLine(%q, %q) = %q carries %d prefixes", c.what, c.err, got, n)
		}
	}
}
