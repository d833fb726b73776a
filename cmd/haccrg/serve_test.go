package main

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"haccrg/internal/harness"
	"haccrg/internal/journal"
	"haccrg/internal/service"
)

// startDaemon boots `haccrg serve` over dataDir in a helper process
// and returns the process plus the base URL scraped from its startup
// log line.
func startDaemon(t *testing.T, dataDir string, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	args := append([]string{
		"serve",
		"-addr", "127.0.0.1:0",
		"-data", dataDir,
		"-drain-timeout", "200ms",
	}, extra...)
	cmd := helperCommand(args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting daemon: %v", err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	// The daemon logs "listening on <addr>" once the socket is bound.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := line[i+len("listening on "):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never reported its listening address")
		return nil, ""
	}
}

// waitExit waits for the daemon to exit and returns its exit code.
func waitExit(t *testing.T, cmd *exec.Cmd) int {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			return 0
		}
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode()
		}
		t.Fatalf("daemon wait: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never exited")
	}
	return -1
}

// manifestRecords counts intact framed records in a manifest file.
func manifestRecords(path string) int {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	r, err := journal.NewReader(f)
	if err != nil {
		return 0
	}
	n := 0
	for {
		if _, err := r.Next(); err != nil {
			return n
		}
		n++
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return -1
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestServerDrainAndResume is the daemon-level statement of the
// drain-and-resume invariant: SIGTERM mid-way through a journaled bench job
// makes the daemon checkpoint and exit with the resumable-state code,
// and a restart over the same data directory finishes the job with
// findings byte-identical to an uninterrupted control run.
func TestServerDrainAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real daemon processes and runs multi-second simulations")
	}
	spec := &service.JobSpec{Kind: service.JobBench, Benches: []string{"hist", "mcarlo"}, RunConfig: harness.RunConfig{Scale: 8}}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// Control: the same spec, uninterrupted, on a throwaway daemon.
	ctrlCmd, ctrlURL := startDaemon(t, t.TempDir())
	ctrlClient := &service.Client{BaseURL: ctrlURL, Tenant: "ci"}
	ctrlID, err := ctrlClient.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("control submit: %v", err)
	}
	want, err := ctrlClient.Wait(ctx, ctrlID)
	if err != nil {
		t.Fatalf("control run: %v", err)
	}
	if want.State != service.StateDone {
		t.Fatalf("control job state = %s (%s)", want.State, want.Error)
	}
	ctrlCmd.Process.Signal(syscall.SIGTERM)
	if code := waitExit(t, ctrlCmd); code != 0 {
		t.Fatalf("idle daemon exited %d on SIGTERM, want 0 (clean drain)", code)
	}

	dataDir := t.TempDir()
	cmd, url := startDaemon(t, dataDir)
	if got := getStatus(t, url+"/readyz"); got != 200 {
		t.Fatalf("readyz before load: HTTP %d, want 200", got)
	}
	cl := &service.Client{BaseURL: url, Tenant: "ci"}
	id, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// SIGTERM once the first run is durably checkpointed and the
	// second is still simulating.
	manifest := filepath.Join(dataDir, "jobs", id+".manifest")
	for deadline := time.Now().Add(time.Minute); manifestRecords(manifest) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("manifest never got its first checkpoint")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cmd.Process.Signal(syscall.SIGTERM)
	if code := waitExit(t, cmd); code != 5 {
		t.Fatalf("daemon exited %d after SIGTERM mid-job, want 5 (resumable state)", code)
	}
	// The accepted job's spec must still be spooled — never dropped.
	if _, err := os.Stat(filepath.Join(dataDir, "jobs", id+".spec.json")); err != nil {
		t.Fatalf("interrupted job's spec missing from spool: %v", err)
	}

	// Restart over the same directory: the job resumes and completes.
	_, url2 := startDaemon(t, dataDir)
	cl2 := &service.Client{BaseURL: url2, Tenant: "ci"}
	got, err := cl2.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait after restart: %v", err)
	}
	if got.State != service.StateDone {
		t.Fatalf("resumed job state = %s (%s), want done", got.State, got.Error)
	}
	if len(got.Runs) != len(want.Runs) {
		t.Fatalf("resumed job has %d runs, control %d", len(got.Runs), len(want.Runs))
	}
	resumedAny := false
	for i := range got.Runs {
		g, w := got.Runs[i], want.Runs[i]
		if g.Bench != w.Bench || g.Cycles != w.Cycles ||
			strings.Join(g.Races, "\n") != strings.Join(w.Races, "\n") {
			t.Errorf("run %d (%s): resumed findings differ from control:\n got %d cycles %v\nwant %d cycles %v",
				i, g.Bench, g.Cycles, g.Races, w.Cycles, w.Races)
		}
		resumedAny = resumedAny || g.Resumed
	}
	if !resumedAny {
		t.Error("no run was served from the pre-SIGTERM checkpoint")
	}
}

// TestVersionFlag checks the ldflags-stamped version plumbing of the
// one -version flag.
func TestVersionFlag(t *testing.T) {
	out, err := helperCommand("-version").Output()
	if err != nil {
		t.Fatalf("-version: %v", err)
	}
	if !strings.HasPrefix(string(out), "haccrg ") {
		t.Fatalf("-version output %q", out)
	}
}

// TestServerUsageExit checks that serve without -data is a usage
// error.
func TestServerUsageExit(t *testing.T) {
	cmd := helperCommand("serve")
	cmd.Stderr = io.Discard
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("no -data: err %v, want exit 2", err)
	}
}
