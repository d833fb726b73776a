package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"testing"
	"time"

	"haccrg/internal/journal"
)

// resumeTestConfigs is a sweep long enough to interrupt partway: the
// mixed workload of sweepTestConfigs at several scales, all distinct
// (the manifest keys on the whole config).
func resumeTestConfigs() []RunConfig {
	var cfgs []RunConfig
	for scale := 1; scale <= 3; scale++ {
		for _, rc := range sweepTestConfigs() {
			rc.Scale = scale
			cfgs = append(cfgs, rc)
		}
	}
	return cfgs
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.manifest")
	m, s, err := OpenManifest(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if s.Records != 0 {
		t.Errorf("fresh manifest salvage = %+v", s)
	}
	rc := RunConfig{Bench: "scan", Detector: DetSharedGlobal, GPU: testGPU(), SingleBlock: true}
	res, err := Sweep{}.runOne(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append(rc, res); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, s2, err := OpenManifest(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if s2.Truncated || s2.Records != 1 {
		t.Fatalf("reopen salvage = %+v, want 1 clean record", s2)
	}
	got, ok := m2.Lookup(rc)
	if !ok {
		t.Fatal("completed run not found on reopen")
	}
	if renderResults(t, []*RunResult{got}) != renderResults(t, []*RunResult{res}) {
		t.Error("manifest round trip changed the result")
	}
}

// TestManifestTornTailRecovery: a manifest with a torn final record
// (the crash case) reopens with the intact prefix, drops the tail, and
// accepts new appends that read back cleanly.
func TestManifestTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.manifest")
	m, _, err := OpenManifest(path, false)
	if err != nil {
		t.Fatal(err)
	}
	rcA := RunConfig{Bench: "scan", Detector: DetOff, GPU: testGPU(), SingleBlock: true}
	resA, err := Sweep{}.runOne(context.Background(), rcA)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append(rcA, resA); err != nil {
		t.Fatal(err)
	}
	m.Close()

	// Tear the tail: half of a would-be next record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2, s, err := OpenManifest(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Truncated || s.Records != 1 {
		t.Fatalf("torn manifest salvage = %+v, want 1 record with truncation", s)
	}
	if _, ok := m2.Lookup(rcA); !ok {
		t.Fatal("intact entry lost to the torn tail")
	}
	rcB := RunConfig{Bench: "reduce", Detector: DetOff, GPU: testGPU()}
	resB, err := Sweep{}.runOne(context.Background(), rcB)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Append(rcB, resB); err != nil {
		t.Fatalf("append after torn-tail recovery: %v", err)
	}
	m2.Close()

	m3, s3, err := OpenManifest(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if s3.Truncated || m3.Len() != 2 {
		t.Errorf("final manifest: %d entries, salvage %+v; want 2 clean", m3.Len(), s3)
	}
}

// TestManifestUndecodableRecordRecovery: a record whose CRC is intact
// but which is not an entry ends the salvage before it. Resuming
// reports the damage and truncates the record away, so an entry
// appended after the resume survives the next one.
func TestManifestUndecodableRecordRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.manifest")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := journal.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("not an entry")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	header := int64(len(journal.Magic) + 4)

	m, s, err := OpenManifest(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Truncated || s.Records != 0 || s.Bytes != header {
		t.Fatalf("salvage = %+v, want truncation before the first record, at %d bytes", s, header)
	}
	rc := RunConfig{Bench: "scan", Detector: DetOff, GPU: testGPU(), SingleBlock: true}
	res, err := Sweep{}.runOne(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append(rc, res); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, s2, err := OpenManifest(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if s2.Truncated || s2.Records != 1 {
		t.Errorf("second resume salvage = %+v, want 1 clean record", s2)
	}
	if _, ok := m2.Lookup(rc); !ok {
		t.Error("the entry appended after the first resume is lost")
	}
}

// TestSweepResumeDeterminism is the crash-safety invariant: a sweep
// cancelled partway and resumed from its manifest produces results
// byte-identical to an uninterrupted sweep, without re-running the
// completed configurations.
func TestSweepResumeDeterminism(t *testing.T) {
	cfgs := resumeTestConfigs()

	ref, err := Sweep{Workers: 4}.Run(cfgs) // uninterrupted, no manifest
	if err != nil {
		t.Fatal(err)
	}
	want := renderResults(t, ref)

	path := filepath.Join(t.TempDir(), "sweep.manifest")
	m, _, err := OpenManifest(path, false)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the sweep once roughly half the runs have committed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for m.Len() < len(cfgs)/2 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	if _, err := (Sweep{Ctx: ctx, Manifest: m, Workers: 4}).Run(cfgs); err == nil {
		t.Log("sweep finished before the cancellation landed; resume path still exercised")
	}
	m.Close()

	m2, s, err := OpenManifest(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if s.Truncated {
		t.Fatalf("per-entry synced manifest reopened torn: %+v", s)
	}
	completed := m2.Len()
	if completed == 0 {
		t.Fatal("no runs committed before cancellation")
	}
	resumed := Sweep{Manifest: m2, Workers: 4}

	// Expected fresh executions: one for every configuration the
	// manifest does not already hold.
	var expected int64
	for _, rc := range cfgs {
		if _, ok := resumed.Lookup(rc); !ok {
			expected++
		}
	}
	before := sweepExecutions.Load()
	res, err := resumed.Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	executed := sweepExecutions.Load() - before
	if got := renderResults(t, res); got != want {
		t.Errorf("resumed sweep diverged from uninterrupted sweep:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", want, got)
	}
	if executed != expected {
		t.Errorf("resumed sweep executed %d simulations, want %d (%d of %d runs were already completed)",
			executed, expected, completed, len(cfgs))
	}
}

// TestJournalIOError: a manifest append failure surfaces as a journal
// I/O error, after the run executed once.
func TestJournalIOError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.manifest")
	m, _, err := OpenManifest(path, false)
	if err != nil {
		t.Fatal(err)
	}
	m.Close() // every append now fails with an IOError

	rc := RunConfig{
		Bench: "scan", Detector: DetSharedGlobal, GPU: testGPU(), SingleBlock: true,
		FaultPlan: "flip:rate=2e-4", FaultSeed: 7,
	}
	before := sweepExecutions.Load()
	_, err = Sweep{Manifest: m}.runOne(context.Background(), rc)
	if err == nil {
		t.Fatal("sweep run succeeded with a closed manifest")
	}
	var ioe *journal.IOError
	if !errors.As(err, &ioe) {
		t.Fatalf("manifest failure surfaced as %v, want a journal I/O error", err)
	}
	if got := sweepExecutions.Load() - before; got != 1 {
		t.Errorf("the run executed %d times, want once", got)
	}
}

// TestSweepSignalInterrupt is the kill-mid-sweep integration test: a
// helper process runs a manifest-backed sweep under a real SIGINT
// handler; the parent interrupts it partway and checks that it exits
// with the resumable-state code and leaves a clean, non-empty
// manifest behind.
func TestSweepSignalInterrupt(t *testing.T) {
	if os.Getenv("HACCRG_SWEEP_HELPER") == "1" {
		runSweepHelper()
		return
	}
	if testing.Short() {
		t.Skip("spawns a helper process")
	}
	path := filepath.Join(t.TempDir(), "sweep.manifest")
	cmd := exec.Command(os.Args[0], "-test.run=TestSweepSignalInterrupt$")
	cmd.Env = append(os.Environ(), "HACCRG_SWEEP_HELPER=1", "HACCRG_SWEEP_MANIFEST="+path)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Interrupt as soon as at least one run has committed.
	deadline := time.Now().Add(60 * time.Second)
	signalled := false
	for time.Now().Before(deadline) {
		if st, err := os.Stat(path); err == nil && st.Size() > 64 {
			if err := cmd.Process.Signal(os.Interrupt); err == nil {
				signalled = true
			}
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	err := cmd.Wait()
	if !signalled {
		t.Fatalf("helper never produced a manifest entry; output:\n%s", out.String())
	}
	switch ee, ok := err.(*exec.ExitError); {
	case err == nil:
		t.Log("helper finished before the signal landed; manifest checks still apply")
	case ok && ee.ExitCode() == 5:
		// interrupted with resumable state: the expected outcome
	default:
		t.Fatalf("helper exited with %v, want code 5; output:\n%s", err, out.String())
	}

	m, s, err := OpenManifest(path, true)
	if err != nil {
		t.Fatalf("interrupted manifest unreadable: %v", err)
	}
	defer m.Close()
	if s.Truncated {
		t.Errorf("interrupted manifest has a torn tail: %+v (appends are synced per entry)", s)
	}
	if m.Len() == 0 {
		t.Error("interrupted manifest holds no completed runs")
	}
}

// runSweepHelper is the child side of TestSweepSignalInterrupt: a
// miniature `haccrg bench` — signal-aware context, manifest-backed
// sweep, exit code 5 on interruption.
func runSweepHelper() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	m, _, err := OpenManifest(os.Getenv("HACCRG_SWEEP_MANIFEST"), true)
	if err != nil {
		os.Exit(1)
	}
	_, err = Sweep{Ctx: ctx, Manifest: m, Workers: 2}.Run(resumeTestConfigs())
	m.Close()
	switch {
	case err != nil && ctx.Err() != nil:
		os.Exit(5) // interrupted: resumable state on disk
	case err != nil:
		os.Exit(1)
	}
	os.Exit(0)
}

// TestResumeOldManifestEncoding: testdata holds two one-run manifests
// written by the last version with the parallel detector engines, for
// the same configuration run on the serial and on the parallel engine.
// Their config keys carry the engine field, and their results the
// engine's queue-peak stat and four self-healing health counters. Each
// resumes — served from the manifest, not re-simulated — to a result
// whose manifest encoding is byte-identical to a fresh run's.
func TestResumeOldManifestEncoding(t *testing.T) {
	rc := RunConfig{
		Bench: "reduce", Detector: DetSharedGlobal, GPU: testGPU(),
		FaultPlan: "queue:cap=16,drain=1", FaultSeed: 7,
	}
	fresh, err := ExecContext(context.Background(), rc, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := manifestEncoding(t, fresh)
	for _, name := range []string{"engine-serial.manifest", "engine-parallel.manifest"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		// Resuming truncates and appends, so work on a copy.
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, salvage, err := OpenManifest(path, true)
		if err != nil {
			t.Fatal(err)
		}
		if salvage.Records != 1 || salvage.Truncated {
			t.Fatalf("%s: salvage %+v, want one clean record", name, salvage)
		}
		before := sweepExecutions.Load()
		got, err := Sweep{Manifest: m}.runOne(context.Background(), rc)
		m.Close()
		if err != nil {
			t.Fatal(err)
		}
		if n := sweepExecutions.Load() - before; n != 0 {
			t.Fatalf("%s: resume re-simulated %d run(s) instead of serving the manifest", name, n)
		}
		gotJSON := manifestEncoding(t, got)
		if !bytes.Equal(gotJSON, want) {
			t.Errorf("%s: resumed result differs from a fresh run\nresumed: %s\nfresh:   %s", name, gotJSON, want)
		}
		if renderResults(t, []*RunResult{got}) != renderResults(t, []*RunResult{fresh}) {
			t.Errorf("%s: resumed rendering differs from a fresh run", name)
		}
	}
}

// specFieldsConfigs are runs that between them set every RunConfig
// field. testdata/spec-fields.manifest is their one-worker sweep's
// manifest, written by the version whose RunConfig had no JSON names,
// so it pins the manifest encoding of every field.
func specFieldsConfigs() []RunConfig {
	return []RunConfig{
		{
			Bench: "scan", Detector: DetShared, Scale: 2, GPU: testGPU(), SingleBlock: true,
			SharedGranularity: 8, GlobalGranularity: 8, StaticFilter: true,
			MaxCycles: 50_000_000, Timeout: time.Hour,
		},
		{
			Bench: "reduce", Detector: DetSharedGlobal, GPU: testGPU(), Inject: []string{"reduce.fence0"},
			WitnessSeed: true, FaultPlan: "queue:cap=16,drain=1", FaultSeed: 7, Degradation: "reinit",
		},
		{Bench: "hist", Detector: DetGlobal, GPU: testGPU(), GlobalGranularity: 16},
	}
}

// TestSpecFieldsManifest: a sweep over specFieldsConfigs rewrites
// testdata/spec-fields.manifest byte for byte, and a resume of the
// fixture serves every run from it, to results identical to the fresh
// sweep's.
func TestSpecFieldsManifest(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "spec-fields.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "fresh.manifest")
	m, _, err := OpenManifest(path, false)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Sweep{Manifest: m, Workers: 1}.Run(specFieldsConfigs())
	m.Close()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		n := 0
		for n < min(len(got), len(want)) && got[n] == want[n] {
			n++
		}
		t.Fatalf("the sweep wrote %d manifest bytes, the fixture holds %d; first difference at byte %d", len(got), len(want), n)
	}

	// Resuming truncates and appends, so work on a copy.
	old := filepath.Join(dir, "old.manifest")
	if err := os.WriteFile(old, want, 0o644); err != nil {
		t.Fatal(err)
	}
	m2, salvage, err := OpenManifest(old, true)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if salvage.Records != len(fresh) || salvage.Truncated {
		t.Fatalf("fixture salvage %+v, want %d clean records", salvage, len(fresh))
	}
	before := sweepExecutions.Load()
	resumed, err := Sweep{Manifest: m2, Workers: 1}.Run(specFieldsConfigs())
	if err != nil {
		t.Fatal(err)
	}
	if n := sweepExecutions.Load() - before; n != 0 {
		t.Fatalf("resume re-simulated %d run(s) instead of serving the manifest", n)
	}
	for i := range fresh {
		if g, w := manifestEncoding(t, resumed[i]), manifestEncoding(t, fresh[i]); !bytes.Equal(g, w) {
			t.Errorf("run %d: resumed result differs from a fresh run\nresumed: %.400s\nfresh:   %.400s", i, g, w)
		}
	}
	if renderResults(t, resumed) != renderResults(t, fresh) {
		t.Error("resumed rendering differs from the fresh sweep's")
	}
}

// manifestEncoding encodes r as the manifest stores it, so a
// comparison also covers the config fields RunConfig's own JSON leaves
// out (Bench, GPU and Timeout).
func manifestEncoding(t *testing.T, r *RunResult) []byte {
	t.Helper()
	b, err := json.Marshal(&manifestResult{Config: manifestConfig(r.Config), RunResult: r})
	if err != nil {
		t.Fatal(err)
	}
	return b
}
