package chaos

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"haccrg/internal/harness"
	"haccrg/internal/journal"
)

func TestScheduleRoundTrip(t *testing.T) {
	specs := []string{
		"",
		"shortwrite:path=manifest,nth=2",
		"syncerr:path=.journal",
		"enospc:path=jobs,after=4096",
		"tornrename:path=.json,nth=3",
		"crash:op=sync,path=manifest,nth=2",
		"shortwrite:nth=2;crash:op=rename,path=.tmp;enospc:after=128",
	}
	for _, spec := range specs {
		s, err := ParseSchedule(spec)
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", spec, err)
		}
		if got := s.String(); got != spec {
			t.Errorf("round trip %q -> %q", spec, got)
		}
	}
	for _, bad := range []string{
		"shortwrite:nth=0",
		"explode:nth=1",
		"crash:nth=1",          // crash needs op
		"crash:op=defrag",      // unknown op
		"enospc:after=-1",      // negative budget
		"shortwrite:nth=horse", // non-numeric
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", bad)
		}
	}
}

func TestHTTPScheduleRoundTrip(t *testing.T) {
	specs := []string{
		"",
		"reset:nth=2",
		"burst503:from=3,count=4",
		"stall:path=/v1/jobs,nth=2",
		"corrupt",
		"reset:nth=2;burst503:from=1,count=1;corrupt:path=/v1,nth=3",
	}
	for _, spec := range specs {
		s, err := ParseHTTPSchedule(spec)
		if err != nil {
			t.Fatalf("ParseHTTPSchedule(%q): %v", spec, err)
		}
		if got := s.String(); got != spec {
			t.Errorf("round trip %q -> %q", spec, got)
		}
	}
	for _, bad := range []string{"reset:nth=0", "burst503:from=1", "teleport:nth=1"} {
		if _, err := ParseHTTPSchedule(bad); err == nil {
			t.Errorf("ParseHTTPSchedule(%q) accepted", bad)
		}
	}
}

func mustSchedule(t *testing.T, spec string) *Schedule {
	t.Helper()
	s, err := ParseSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFaultFSShortWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, mustSchedule(t, "shortwrite:nth=2"), CrashSimulate)
	f, err := ffs.Create(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("first")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	n, err := f.Write([]byte("second"))
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2: want injected error, got n=%d err=%v", n, err)
	}
	if n >= len("second") {
		t.Fatalf("short write delivered %d of %d bytes", n, len("second"))
	}
	if len(ffs.Fired()) != 1 {
		t.Fatalf("fired log: %v", ffs.Fired())
	}
}

func TestFaultFSSyncErr(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, mustSchedule(t, "syncerr:nth=1"), CrashSimulate)
	f, err := ffs.Create(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("sync: want injected error, got %v", err)
	}
	if err := f.Sync(); err != nil { // nth=1 fired; next sync is real
		t.Fatalf("sync 2: %v", err)
	}
}

func TestFaultFSENOSPC(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, mustSchedule(t, "enospc:after=10"), CrashSimulate)
	f, err := ffs.Create(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("12345678")); err != nil { // 8 <= 10
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abcdefgh")) // crosses the 10-byte budget
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("want ENOSPC-style injected error, got n=%d err=%v", n, err)
	}
	if n != 2 {
		t.Fatalf("partial write before ENOSPC: got %d bytes, want 2", n)
	}
}

func TestFaultFSCrashTruncatesToSynced(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x")
	ffs := NewFaultFS(nil, mustSchedule(t, "crash:op=write,nth=3"), CrashSimulate)
	f, err := ffs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable.")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("volatile")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("boom")); err == nil || !errors.Is(err, ErrCrashed) {
		t.Fatalf("want crash on 3rd write, got %v", err)
	}
	if !ffs.Crashed() {
		t.Fatal("FS not marked crashed")
	}
	// Post-crash: only the synced prefix survives.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "durable." {
		t.Fatalf("post-crash contents %q, want synced prefix %q", data, "durable.")
	}
	// Every subsequent operation fails: the process is "dead".
	if _, err := ffs.Create(filepath.Join(dir, "y")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash create: %v", err)
	}
}

func TestFaultFSTornRename(t *testing.T) {
	dir := t.TempDir()
	src, dst := filepath.Join(dir, "a.tmp"), filepath.Join(dir, "a.json")
	ffs := NewFaultFS(nil, mustSchedule(t, "tornrename:path=a.json,nth=1"), CrashSimulate)
	f, err := ffs.Create(src)
	if err != nil {
		t.Fatal(err)
	}
	payload := "0123456789abcdef"
	if _, err := f.Write([]byte(payload)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// The tear is silent: rename reports success.
	if err := ffs.Rename(src, dst); err != nil {
		t.Fatalf("torn rename must be silent, got %v", err)
	}
	data, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != payload[:len(payload)/2] {
		t.Fatalf("torn destination %q, want first half %q", data, payload[:len(payload)/2])
	}
	if _, err := os.Stat(src); !os.IsNotExist(err) {
		t.Fatalf("source should be gone after torn rename: %v", err)
	}
}

// TestManifestFsyncFailureIsHard pins the satellite-2 contract on the
// sweep manifest: a failed fsync makes Append return a hard error and
// the entry is not admitted to the resume index.
func TestManifestFsyncFailureIsHard(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.manifest")
	ffs := NewFaultFS(nil, mustSchedule(t, "syncerr:nth=1"), CrashSimulate)
	m, _, err := harness.OpenManifestFS(ffs, path, false)
	if err != nil {
		t.Fatal(err)
	}
	rc := harness.RunConfig{Bench: "baddiv", Detector: harness.DetSharedGlobal}
	res := &harness.RunResult{Config: rc}
	err = m.Append(rc, res)
	if err == nil {
		t.Fatal("Append swallowed an fsync failure")
	}
	var ioe *journal.IOError
	if !errors.As(err, &ioe) {
		t.Fatalf("want *journal.IOError, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), "sync") {
		t.Fatalf("error does not name the failed sync: %v", err)
	}
	if _, ok := m.Lookup(rc); ok {
		t.Fatal("entry admitted to the index despite failed fsync")
	}
	m.Close()
}

// TestJournalFileWriterFsyncFailureIsSticky pins the satellite-2
// contract on the event journal: a failed fsync is a hard write
// failure and poisons every later operation.
func TestJournalFileWriterFsyncFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, mustSchedule(t, "syncerr:nth=1"), CrashSimulate)
	fw, err := journal.CreateFile(ffs, filepath.Join(dir, "j.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	serr := fw.Sync()
	if serr == nil {
		t.Fatal("Sync swallowed an fsync failure")
	}
	var ioe *journal.IOError
	if !errors.As(serr, &ioe) {
		t.Fatalf("want *journal.IOError, got %T: %v", serr, serr)
	}
	if _, err := fw.Write([]byte("more")); err == nil {
		t.Fatal("Write succeeded after failed fsync (not sticky)")
	}
	if err := fw.Close(); err == nil {
		t.Fatal("Close reported success on a journal with a failed fsync")
	}
}
