// Package chaos is the cross-layer chaos engine: deterministic,
// seeded fault injection composed across every layer of the system —
// the detector's own fault plans (internal/fault), filesystem faults
// under the durability spine (this file), and HTTP faults around the
// service client (http.go) — driven by campaigns (campaign.go) that
// assert the system's four robustness invariants after every step and
// minimize any violation to a one-line repro.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"io/fs"

	"haccrg/internal/vfs"
)

// Injected-fault sentinels. Every error the fault FS manufactures
// wraps ErrInjected, so tests and invariant checkers can tell injected
// damage from a real environmental failure; ErrCrashed marks every
// operation after a crash-point fired.
var (
	ErrInjected = errors.New("chaos: injected fault")
	ErrCrashed  = errors.New("chaos: filesystem crashed")
)

// Fault schedule clause kinds.
const (
	KindShortWrite = "shortwrite" // nth matching write stops halfway and errors
	KindSyncErr    = "syncerr"    // nth matching fsync fails (bytes stay unsynced)
	KindENOSPC     = "enospc"     // matching writes fail once `after` bytes landed
	KindTornRename = "tornrename" // nth matching rename silently half-commits
	KindCrash      = "crash"      // nth matching op crashes the filesystem
)

// crashable ops a crash clause can name.
var crashOps = map[string]bool{
	"create": true, "open": true, "write": true, "sync": true,
	"close": true, "rename": true, "remove": true,
}

// Clause is one scheduled filesystem fault. Matching is by operation
// kind plus Path substring (empty matches every path); Nth counts
// matching operations 1-based, so `syncerr:path=manifest,nth=2` fires
// on the second fsync of any path containing "manifest".
type Clause struct {
	Kind string
	// Op is the crashed operation for crash clauses (create, open,
	// write, sync, close, rename, remove).
	Op string
	// Path is a substring filter on the target path; empty matches all.
	Path string
	// Nth is which matching operation fires the clause, 1-based
	// (default 1). ENOSPC clauses ignore it.
	Nth int
	// After is the ENOSPC byte budget: matching writes fail once the
	// clause has admitted this many bytes.
	After int64

	seen  int   // matching operations observed
	bytes int64 // bytes admitted (enospc)
}

// String renders the clause in canonical spec form — Parse(c.String())
// round-trips.
func (c *Clause) String() string {
	var parts []string
	if c.Op != "" {
		parts = append(parts, "op="+c.Op)
	}
	if c.Path != "" {
		parts = append(parts, "path="+c.Path)
	}
	if c.Kind == KindENOSPC {
		parts = append(parts, "after="+strconv.FormatInt(c.After, 10))
	} else if c.Nth != 1 {
		parts = append(parts, "nth="+strconv.Itoa(c.Nth))
	}
	if len(parts) == 0 {
		return c.Kind
	}
	return c.Kind + ":" + strings.Join(parts, ",")
}

func (c *Clause) validate() error {
	switch c.Kind {
	case KindShortWrite, KindSyncErr, KindENOSPC, KindTornRename:
		if c.Op != "" {
			return fmt.Errorf("chaos: %s clause takes no op", c.Kind)
		}
	case KindCrash:
		if !crashOps[c.Op] {
			return fmt.Errorf("chaos: crash clause needs op= one of create/open/write/sync/close/rename/remove, got %q", c.Op)
		}
	default:
		return fmt.Errorf("chaos: unknown fault clause kind %q", c.Kind)
	}
	if c.Nth < 1 {
		return fmt.Errorf("chaos: clause %s: nth must be >= 1", c.Kind)
	}
	if c.After < 0 {
		return fmt.Errorf("chaos: clause %s: after must be >= 0", c.Kind)
	}
	return nil
}

// Schedule is an ordered set of filesystem fault clauses, parsed from
// and rendered to the semicolon-separated spec form used on repro
// lines: "syncerr:path=manifest,nth=2;crash:op=rename,path=spec".
type Schedule struct {
	Clauses []*Clause
}

// ParseSchedule parses a fault schedule spec. The empty string is the
// empty (fault-free) schedule.
func ParseSchedule(spec string) (*Schedule, error) {
	cs, err := parseClauses(spec, "clause", func(kind string) *Clause { return &Clause{Kind: kind, Nth: 1} })
	if err != nil {
		return nil, err
	}
	return &Schedule{Clauses: cs}, nil
}

// set applies one key=value param of a clause.
func (c *Clause) set(k, v string) (err error) {
	switch k {
	case "op":
		c.Op = v
	case "path":
		c.Path = v
	case "nth":
		c.Nth, err = strconv.Atoi(v)
	case "after":
		c.After, err = strconv.ParseInt(v, 10, 64)
	default:
		return fmt.Errorf("unknown param %q", k)
	}
	if err != nil {
		return fmt.Errorf("%s: %v", k, err)
	}
	return nil
}

// A clause is one fault clause of either schedule grammar, filesystem
// (*Clause) or HTTP (*HTTPClause), as parseClauses builds it.
type clause interface {
	set(k, v string) error
	validate() error
}

// parseClauses runs the loop both schedule grammars share. A spec is
// clauses separated by semicolons, blank ones skipped; each is a kind,
// optionally followed by a colon and comma-separated key=value params.
// newClause starts a clause of a kind, its params are set in order,
// and it must validate. what names the grammar in the errors this
// loop makes ("clause", "http clause").
func parseClauses[C clause](spec, what string, newClause func(kind string) C) ([]C, error) {
	var out []C
	for _, cs := range strings.Split(spec, ";") {
		cs = strings.TrimSpace(cs)
		if cs == "" {
			continue
		}
		kind, rest, _ := strings.Cut(cs, ":")
		c := newClause(strings.TrimSpace(kind))
		if rest != "" {
			for _, kv := range strings.Split(rest, ",") {
				k, v, ok := strings.Cut(kv, "=")
				k, v = strings.TrimSpace(k), strings.TrimSpace(v)
				if !ok || v == "" {
					return nil, fmt.Errorf("chaos: %s %q: malformed param %q", what, cs, kv)
				}
				if err := c.set(k, v); err != nil {
					return nil, fmt.Errorf("chaos: %s %q: %w", what, cs, err)
				}
			}
		}
		if err := c.validate(); err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// String renders the schedule in canonical spec form.
func (s *Schedule) String() string {
	if s == nil || len(s.Clauses) == 0 {
		return ""
	}
	parts := make([]string, len(s.Clauses))
	for i, c := range s.Clauses {
		parts[i] = c.String()
	}
	return strings.Join(parts, ";")
}

// clone returns a fresh schedule with zeroed counters — a FaultFS
// consumes counters, so each FS instance needs its own copy.
func (s *Schedule) clone() *Schedule {
	out := &Schedule{Clauses: make([]*Clause, len(s.Clauses))}
	for i, c := range s.Clauses {
		cc := *c
		cc.seen, cc.bytes = 0, 0
		out.Clauses[i] = &cc
	}
	return out
}

// fileState is the crash model's view of one written path: how big the
// file is, and how much of it is on stable storage. A crash truncates
// the real file to the synced length — unsynced bytes are gone.
type fileState struct {
	size   int64
	synced int64
	open   *faultFile // writable handle currently open, if any
}

// FaultFS is a vfs.FS that injects scheduled faults into a real
// filesystem underneath. All faults are deterministic: the schedule's
// counters, not randomness, decide what fires, so a campaign step's
// repro line reproduces byte-for-byte.
type FaultFS struct {
	mu    sync.Mutex
	real  vfs.FS
	sched *Schedule

	crashed bool
	files   map[string]*fileState
	fired   []string
}

// NewFaultFS wraps real (vfs.OS when nil) with the fault schedule.
// The schedule's counters are private to this FS instance.
func NewFaultFS(real vfs.FS, sched *Schedule) *FaultFS {
	if sched == nil {
		sched = &Schedule{}
	}
	return &FaultFS{
		real:  vfs.Default(real),
		sched: sched.clone(),
		files: map[string]*fileState{},
	}
}

// Fired returns the log of fired faults, in firing order — what a
// campaign prints alongside a violated invariant.
func (f *FaultFS) Fired() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.fired...)
}

// match finds the first armed clause of kind matching path and, if its
// Nth count is reached, fires it. Caller holds f.mu. ENOSPC is handled
// separately (byte-budget, not nth).
func (f *FaultFS) match(kind, op, path string) *Clause {
	for _, c := range f.sched.Clauses {
		if c.Kind != kind || (kind == KindCrash && c.Op != op) {
			continue
		}
		if c.Path != "" && !strings.Contains(path, c.Path) {
			continue
		}
		c.seen++
		if c.seen == c.Nth {
			f.fired = append(f.fired, fmt.Sprintf("%s fired on %s %s", c, op, path))
			return c
		}
		return nil // first matching clause owns the count
	}
	return nil
}

// enospcBudget returns the matching ENOSPC clause and how many more
// bytes it admits (caller holds f.mu); nil when no clause matches.
func (f *FaultFS) enospcClause(path string) *Clause {
	for _, c := range f.sched.Clauses {
		if c.Kind == KindENOSPC && (c.Path == "" || strings.Contains(path, c.Path)) {
			return c
		}
	}
	return nil
}

// crash fires a crash-point: every written file is truncated to its
// synced length (unsynced bytes are what a real power cut loses) and
// the FS goes dead, failing every later operation with ErrCrashed.
// Caller holds f.mu.
func (f *FaultFS) crash(op, path string) {
	f.fired = append(f.fired, fmt.Sprintf("crash at %s %s", op, path))
	f.crashed = true
	for p, st := range f.files {
		if st.open != nil {
			st.open.f.Truncate(st.synced)
			st.open.f.Sync()
			continue
		}
		if h, err := f.real.OpenFile(p, os.O_RDWR, 0o644); err == nil {
			h.Truncate(st.synced)
			h.Sync()
			h.Close()
		}
	}
}

// faultFile is one open handle. Position is per-handle; size and
// synced length live in the shared fileState (nil for read-only
// handles, which need only the crashed check).
type faultFile struct {
	fs   *FaultFS
	f    vfs.File
	st   *fileState
	path string
	pos  int64
}

// Create implements vfs.FS.
func (f *FaultFS) Create(name string) (vfs.File, error) {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return nil, ErrCrashed
	}
	if c := f.match(KindCrash, "create", name); c != nil {
		f.crash("create", name)
		f.mu.Unlock()
		return nil, ErrCrashed
	}
	f.mu.Unlock()
	h, err := f.real.Create(name)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	st := &fileState{}
	f.files[name] = st
	ff := &faultFile{fs: f, f: h, st: st, path: name}
	st.open = ff
	f.mu.Unlock()
	return ff, nil
}

// Open implements vfs.FS (read-only; crash check, no fault surface).
func (f *FaultFS) Open(name string) (vfs.File, error) {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return nil, ErrCrashed
	}
	if c := f.match(KindCrash, "open", name); c != nil {
		f.crash("open", name)
		f.mu.Unlock()
		return nil, ErrCrashed
	}
	f.mu.Unlock()
	h, err := f.real.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: h, path: name}, nil
}

// OpenFile implements vfs.FS. Writable opens of existing files treat
// the preexisting bytes as durable (they survived whatever wrote them).
func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return nil, ErrCrashed
	}
	if c := f.match(KindCrash, "open", name); c != nil {
		f.crash("open", name)
		f.mu.Unlock()
		return nil, ErrCrashed
	}
	f.mu.Unlock()
	h, err := f.real.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	writable := flag&(os.O_WRONLY|os.O_RDWR) != 0
	if !writable {
		return &faultFile{fs: f, f: h, path: name}, nil
	}
	size, err := h.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = h.Seek(0, io.SeekStart)
	}
	if err != nil {
		h.Close()
		return nil, err
	}
	f.mu.Lock()
	st := f.files[name]
	if st == nil {
		st = &fileState{size: size, synced: size}
		f.files[name] = st
	} else {
		st.size = size
		if st.synced > size {
			st.synced = size
		}
	}
	ff := &faultFile{fs: f, f: h, st: st, path: name}
	st.open = ff
	f.mu.Unlock()
	return ff, nil
}

// Rename implements vfs.FS — the commit point of every temp-and-rename
// write, and so the highest-value fault site. A torn rename silently
// half-commits: the destination receives only the first half of the
// source's bytes and the call reports success, modeling a broken FS
// whose damage only recovery-time integrity checks (CRC frames, JSON
// parses) can catch.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return ErrCrashed
	}
	if c := f.match(KindCrash, "rename", newpath); c != nil {
		f.crash("rename", newpath)
		f.mu.Unlock()
		return ErrCrashed
	}
	torn := f.match(KindTornRename, "rename", newpath) != nil
	f.mu.Unlock()
	if torn {
		data, err := f.real.ReadFile(oldpath)
		if err != nil {
			return err
		}
		h, err := f.real.Create(newpath)
		if err != nil {
			return err
		}
		if _, err := h.Write(data[:len(data)/2]); err != nil {
			h.Close()
			return err
		}
		if err := h.Close(); err != nil {
			return err
		}
		f.real.Remove(oldpath)
		f.mu.Lock()
		st := f.files[oldpath]
		delete(f.files, oldpath)
		half := int64(len(data) / 2)
		if st == nil {
			st = &fileState{}
		}
		st.size, st.synced, st.open = half, half, nil
		f.files[newpath] = st
		f.mu.Unlock()
		return nil // silent: the writer believes the commit landed
	}
	if err := f.real.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.mu.Lock()
	if st := f.files[oldpath]; st != nil {
		delete(f.files, oldpath)
		f.files[newpath] = st
	}
	f.mu.Unlock()
	return nil
}

// Remove implements vfs.FS.
func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return ErrCrashed
	}
	if c := f.match(KindCrash, "remove", name); c != nil {
		f.crash("remove", name)
		f.mu.Unlock()
		return ErrCrashed
	}
	delete(f.files, name)
	f.mu.Unlock()
	return f.real.Remove(name)
}

// MkdirAll implements vfs.FS.
func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return ErrCrashed
	}
	f.mu.Unlock()
	return f.real.MkdirAll(path, perm)
}

// ReadFile implements vfs.FS.
func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return nil, ErrCrashed
	}
	f.mu.Unlock()
	return f.real.ReadFile(name)
}

// Glob implements vfs.FS.
func (f *FaultFS) Glob(pattern string) ([]string, error) {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return nil, ErrCrashed
	}
	f.mu.Unlock()
	return f.real.Glob(pattern)
}

func (ff *faultFile) Read(p []byte) (int, error) {
	ff.fs.mu.Lock()
	if ff.fs.crashed {
		ff.fs.mu.Unlock()
		return 0, ErrCrashed
	}
	ff.fs.mu.Unlock()
	n, err := ff.f.Read(p)
	ff.pos += int64(n)
	return n, err
}

func (ff *faultFile) Write(p []byte) (int, error) {
	fs := ff.fs
	fs.mu.Lock()
	if fs.crashed {
		fs.mu.Unlock()
		return 0, ErrCrashed
	}
	if ff.st == nil {
		fs.mu.Unlock()
		return 0, fmt.Errorf("%w: write to read-only handle %s", ErrInjected, ff.path)
	}
	if c := fs.match(KindCrash, "write", ff.path); c != nil {
		fs.crash("write", ff.path)
		fs.mu.Unlock()
		return 0, ErrCrashed
	}
	limit := len(p)
	var failure error
	if c := fs.enospcClause(ff.path); c != nil {
		room := c.After - c.bytes
		if room < 0 {
			room = 0
		}
		if int64(limit) > room {
			limit = int(room)
			failure = fmt.Errorf("%w: no space left on device (injected after %d bytes): %s", ErrInjected, c.After, ff.path)
			fs.fired = append(fs.fired, fmt.Sprintf("%s fired on write %s", c, ff.path))
		}
		c.bytes += int64(limit)
	}
	if failure == nil {
		if c := fs.match(KindShortWrite, "write", ff.path); c != nil {
			limit = len(p) / 2
			failure = fmt.Errorf("%w: short write (%d of %d bytes): %s", ErrInjected, limit, len(p), ff.path)
		}
	}
	fs.mu.Unlock()

	n, err := ff.f.Write(p[:limit])
	ff.pos += int64(n)
	fs.mu.Lock()
	if ff.pos > ff.st.size {
		ff.st.size = ff.pos
	}
	fs.mu.Unlock()
	if err != nil {
		return n, err
	}
	if failure != nil {
		return n, failure
	}
	return n, nil
}

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	ff.fs.mu.Lock()
	if ff.fs.crashed {
		ff.fs.mu.Unlock()
		return 0, ErrCrashed
	}
	ff.fs.mu.Unlock()
	pos, err := ff.f.Seek(offset, whence)
	if err == nil {
		ff.pos = pos
	}
	return pos, err
}

func (ff *faultFile) Sync() error {
	fs := ff.fs
	fs.mu.Lock()
	if fs.crashed {
		fs.mu.Unlock()
		return ErrCrashed
	}
	if c := fs.match(KindCrash, "sync", ff.path); c != nil {
		fs.crash("sync", ff.path)
		fs.mu.Unlock()
		return ErrCrashed
	}
	if c := fs.match(KindSyncErr, "sync", ff.path); c != nil {
		// The bytes stay unsynced: a later crash loses them, exactly as
		// a real failed fsync leaves the page cache in doubt.
		fs.mu.Unlock()
		return fmt.Errorf("%w: fsync failed: %s", ErrInjected, ff.path)
	}
	fs.mu.Unlock()
	if err := ff.f.Sync(); err != nil {
		return err
	}
	fs.mu.Lock()
	if ff.st != nil {
		ff.st.synced = ff.st.size
	}
	fs.mu.Unlock()
	return nil
}

func (ff *faultFile) Close() error {
	fs := ff.fs
	fs.mu.Lock()
	if ff.st != nil && ff.st.open == ff {
		ff.st.open = nil
	}
	if fs.crashed {
		fs.mu.Unlock()
		return ErrCrashed
	}
	if c := fs.match(KindCrash, "close", ff.path); c != nil {
		fs.crash("close", ff.path)
		fs.mu.Unlock()
		return ErrCrashed
	}
	fs.mu.Unlock()
	return ff.f.Close()
}

func (ff *faultFile) Truncate(size int64) error {
	fs := ff.fs
	fs.mu.Lock()
	if fs.crashed {
		fs.mu.Unlock()
		return ErrCrashed
	}
	fs.mu.Unlock()
	if err := ff.f.Truncate(size); err != nil {
		return err
	}
	fs.mu.Lock()
	if ff.st != nil {
		ff.st.size = size
		if ff.st.synced > size {
			ff.st.synced = size
		}
	}
	fs.mu.Unlock()
	return nil
}
