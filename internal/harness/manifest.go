package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"haccrg/internal/journal"
	"haccrg/internal/vfs"
)

// Manifest is the sweep engine's durable completion log: every
// finished RunConfig's full result, appended as one CRC-framed JSON
// record in the journal format. A sweep killed mid-flight leaves a
// manifest whose intact prefix is exactly the completed runs; opened
// with resume, those runs are served from the manifest instead of
// re-simulated, and the torn tail (if any) is truncated away so new
// appends stay well-framed.
type Manifest struct {
	mu      sync.Mutex
	f       vfs.File
	w       *journal.Writer
	entries map[string]*RunResult
	path    string
}

// manifestEntry is one journaled completion.
type manifestEntry struct {
	Config RunConfig  `json:"config"`
	Result *RunResult `json:"result"`
}

// configKey canonicalizes a RunConfig for manifest lookup. JSON of the
// struct is deterministic (fixed field order, sorted maps), so equal
// configs always collide and different configs never do.
func configKey(rc RunConfig) (string, error) {
	b, err := json.Marshal(rc)
	if err != nil {
		return "", fmt.Errorf("harness: manifest key: %w", err)
	}
	return string(b), nil
}

// OpenManifest opens (or creates) a sweep manifest at path on the real
// filesystem. See OpenManifestFS.
func OpenManifest(path string, resume bool) (*Manifest, journal.Salvage, error) {
	return OpenManifestFS(nil, path, resume)
}

// OpenManifestFS opens (or creates) a sweep manifest at path on fsys
// (vfs.OS when nil — the seam exists so chaos campaigns can run the
// manifest over a fault-injecting filesystem). With resume false any
// existing file is truncated and a fresh journal started. With resume
// true the intact prefix of an existing file is loaded — completed
// runs become lookup hits — and the file is truncated to the last
// intact record so appends continue cleanly; the returned Salvage
// says what was recovered.
func OpenManifestFS(fsys vfs.FS, path string, resume bool) (*Manifest, journal.Salvage, error) {
	fsys = vfs.Default(fsys)
	var salvage journal.Salvage
	m := &Manifest{entries: map[string]*RunResult{}, path: path}
	if !resume {
		f, err := fsys.Create(path)
		if err != nil {
			return nil, salvage, &journal.IOError{Op: "create manifest", Err: err}
		}
		w, err := journal.NewWriter(f)
		if err != nil {
			f.Close()
			return nil, salvage, err
		}
		m.f, m.w = f, w
		return m, salvage, nil
	}

	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, salvage, &journal.IOError{Op: "open manifest", Err: err}
	}
	r, err := journal.NewReader(f)
	if err != nil {
		// Empty or header-corrupt file: start it over. Anything the
		// header damage hid is unrecoverable either way.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, salvage, &journal.IOError{Op: "truncate manifest", Err: err}
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, salvage, &journal.IOError{Op: "rewind manifest", Err: err}
		}
		w, err := journal.NewWriter(f)
		if err != nil {
			f.Close()
			return nil, salvage, err
		}
		m.f, m.w = f, w
		return m, salvage, nil
	}
	for {
		payload, err := r.Next()
		if err != nil {
			break // clean EOF or salvage stop
		}
		// A CRC-intact record that is not an entry: stop trusting the
		// file here, before it, as at a torn frame.
		var e manifestEntry
		if err := json.Unmarshal(payload, &e); err != nil {
			r.Reject(fmt.Sprintf("undecodable manifest entry: %v", err))
			break
		}
		if e.Result == nil {
			r.Reject("manifest entry without a result")
			break
		}
		key, err := configKey(e.Config)
		if err != nil {
			r.Reject(err.Error())
			break
		}
		m.entries[key] = e.Result
	}
	salvage = r.Salvage()
	// Drop the torn tail (and an undecodable record with all after it)
	// so the next append starts at a frame boundary.
	if err := f.Truncate(salvage.Bytes); err != nil {
		f.Close()
		return nil, salvage, &journal.IOError{Op: "truncate manifest tail", Err: err}
	}
	if _, err := f.Seek(salvage.Bytes, io.SeekStart); err != nil {
		f.Close()
		return nil, salvage, &journal.IOError{Op: "seek manifest", Err: err}
	}
	m.f, m.w = f, journal.ResumeWriter(f)
	return m, salvage, nil
}

// Path returns the manifest's file path.
func (m *Manifest) Path() string { return m.path }

// Len returns how many completed runs the manifest holds.
func (m *Manifest) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Lookup returns the stored result for a completed configuration.
func (m *Manifest) Lookup(rc RunConfig) (*RunResult, bool) {
	key, err := configKey(rc)
	if err != nil {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.entries[key]
	return r, ok
}

// Append journals one completed run under rc — the configuration as
// the sweep requested it, before any retry re-seeding — and syncs it
// to stable storage, so a kill arriving any time later cannot lose it.
// An fsync failure is a hard write failure: the entry is not admitted
// to the in-memory index and the error is surfaced as a journal I/O
// error — non-retryable by the sweep runner.
func (m *Manifest) Append(rc RunConfig, res *RunResult) error {
	key, err := configKey(rc)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(&manifestEntry{Config: rc, Result: res})
	if err != nil {
		return fmt.Errorf("harness: manifest entry: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.w == nil {
		return &journal.IOError{Op: "append", Err: errors.New("manifest closed")}
	}
	if err := m.w.Append(payload); err != nil {
		return err
	}
	if m.f != nil {
		if err := m.f.Sync(); err != nil {
			return &journal.IOError{Op: "sync manifest", Err: err}
		}
	}
	m.entries[key] = res
	return nil
}

// Close flushes and closes the manifest file. The in-memory entries
// stay readable (Lookup) after Close; appends fail.
func (m *Manifest) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.w = nil
	if m.f == nil {
		return nil
	}
	err := m.f.Close()
	m.f = nil
	if err != nil {
		return &journal.IOError{Op: "close manifest", Err: err}
	}
	return nil
}
