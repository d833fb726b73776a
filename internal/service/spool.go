package service

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"haccrg/internal/vfs"
)

// The spool is the daemon's durable job store: an accepted job's spec
// is written and synced here before the 202 goes out, its status
// record lands here when it reaches a terminal state, and anything
// with a spec but no terminal status is re-admitted on startup. That
// is the whole never-drop-an-accepted-job contract: the spool entry,
// plus the per-job sweep manifest for bench jobs, is exactly the state
// a restart needs to finish the work.
//
// Every spool I/O goes through a vfs.FS (the real filesystem in
// production) so chaos campaigns can interpose fault injection —
// short writes, failed fsyncs, torn renames, crashes between ops.
//
// Layout under dir:
//
//	jobs/<id>.spec.json    the accepted JobSpec + identity (synced)
//	jobs/<id>.status.json  the terminal JobStatus (synced)
//	jobs/<id>.manifest     bench jobs: the sweep checkpoint (PR 3 format)
//	jobs/<id>.journal      replay jobs: the uploaded journal bytes
type spool struct {
	dir  string
	fsys vfs.FS
}

// spoolSpec is the durable admission record. Seq is the admission
// sequence number: recovery re-admits unfinished jobs in ascending Seq
// — original submission order — not in directory-listing order of
// their random IDs. Older spools without Seq (all zero) fall back to
// ID order, matching their pre-Seq behavior. EnqueuedAt is the job's
// admission time, restored into its status on recovery; older spools
// without it decode a zero time.
type spoolSpec struct {
	ID         string    `json:"id"`
	Seq        int64     `json:"seq,omitempty"`
	Tenant     string    `json:"tenant"`
	EnqueuedAt time.Time `json:"enqueued_at"`
	Spec       *JobSpec  `json:"spec"`
}

func openSpool(fsys vfs.FS, dir string) (*spool, error) {
	fsys = vfs.Default(fsys)
	if err := fsys.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("service: spool: %w", err)
	}
	return &spool{dir: dir, fsys: fsys}, nil
}

func (s *spool) specPath(id string) string {
	return filepath.Join(s.dir, "jobs", id+".spec.json")
}
func (s *spool) statusPath(id string) string {
	return filepath.Join(s.dir, "jobs", id+".status.json")
}

// manifestPath is the bench job's sweep checkpoint file.
func (s *spool) manifestPath(id string) string {
	return filepath.Join(s.dir, "jobs", id+".manifest")
}

// journalPath is the replay job's uploaded journal.
func (s *spool) journalPath(id string) string {
	return filepath.Join(s.dir, "jobs", id+".journal")
}

// writeSynced writes data to path through a temp file, fsyncs, and
// renames — a crash leaves either the old file or the new one, never a
// torn half of each. An fsync failure is a hard write failure: the
// temp file is removed and the target untouched.
func writeSynced(fsys vfs.FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.Rename(tmp, path)
}

// putSpec durably records an accepted job under its admission sequence
// number and time. Admission must not be acknowledged before it returns.
func (s *spool) putSpec(id string, seq int64, tenant string, enqueued time.Time, spec *JobSpec) error {
	data, err := json.Marshal(&spoolSpec{ID: id, Seq: seq, Tenant: tenant, EnqueuedAt: enqueued, Spec: spec})
	if err != nil {
		return fmt.Errorf("service: spool spec: %w", err)
	}
	return writeSynced(s.fsys, s.specPath(id), data)
}

// putStatus durably records a terminal status.
func (s *spool) putStatus(st *JobStatus) error {
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("service: spool status: %w", err)
	}
	return writeSynced(s.fsys, s.statusPath(st.ID), data)
}

// drop removes every trace of a job that was never fully admitted
// (e.g. spec persisted, then the queue turned out to be full).
func (s *spool) drop(id string) {
	s.fsys.Remove(s.specPath(id))
	s.fsys.Remove(s.journalPath(id))
}

// dropJournal removes just the uploaded journal (spec write failed
// after the journal landed).
func (s *spool) dropJournal(id string) {
	s.fsys.Remove(s.journalPath(id))
}

// spoolJournal streams an uploaded journal to path and syncs it, via
// the same temp-and-rename discipline as every other spool write.
func spoolJournal(fsys vfs.FS, path string, src io.Reader) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, src); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("service: spool journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.Rename(tmp, path)
}

// spoolEntry is one recovered job: its admission record and, when the
// job finished before the restart, its terminal status.
type spoolEntry struct {
	spoolSpec
	Status *JobStatus
}

// load recovers every spooled job in admission order: ascending Seq,
// ID as the tiebreak (and as the whole order for pre-Seq spools).
// Unreadable specs are skipped with their paths reported, not fatal —
// one corrupt file must not hold the daemon down.
func (s *spool) load() (entries []spoolEntry, skipped []string, err error) {
	glob, err := s.fsys.Glob(filepath.Join(s.dir, "jobs", "*.spec.json"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(glob)
	for _, path := range glob {
		data, rerr := s.fsys.ReadFile(path)
		if rerr != nil {
			skipped = append(skipped, path)
			continue
		}
		var sp spoolSpec
		if jerr := json.Unmarshal(data, &sp); jerr != nil || sp.ID == "" || sp.Spec == nil {
			skipped = append(skipped, path)
			continue
		}
		if want := s.specPath(sp.ID); want != path && !strings.HasSuffix(path, filepath.Base(want)) {
			skipped = append(skipped, path)
			continue
		}
		e := spoolEntry{spoolSpec: sp}
		if sdata, serr := s.fsys.ReadFile(s.statusPath(sp.ID)); serr == nil {
			var st JobStatus
			if json.Unmarshal(sdata, &st) == nil && st.ID == sp.ID {
				e.Status = &st
			}
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Seq != entries[j].Seq {
			return entries[i].Seq < entries[j].Seq
		}
		return entries[i].ID < entries[j].ID
	})
	return entries, skipped, nil
}
