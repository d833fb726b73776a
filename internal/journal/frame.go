// Package journal provides a durable, replayable record of a
// simulation's detector event stream: kernel lifecycle, block
// placement, warp memory events, fence-clock lookups and race
// verdicts, written as a versioned, length-prefixed, CRC32C-framed
// binary log.
//
// The format is built for crash forensics: a Reader never panics on a
// damaged file — it salvages the longest intact prefix of records,
// truncating at the first torn write or corrupt frame, and reports
// exactly what survived. A Recorder wraps the gpu.Detector a run
// checks with and captures everything the detector's verdict depends
// on, so Replay can feed the journal back through a fresh detector
// offline and reproduce the recorded race findings byte for byte, and
// Timeline can render the run's event timeline from it.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic opens every journal file, followed by a little-endian uint32
// format version.
const Magic = "HACCRGJL"

// Version is the current frame-format version. Readers reject files
// with a newer version rather than misparse them.
const Version = 1

// MaxRecordBytes bounds a single record's payload. A corrupt length
// field cannot make the reader allocate more than this.
const MaxRecordBytes = 1 << 24

// headerLen is the file header size: magic plus version.
const headerLen = len(Magic) + 4

// frameLen is the per-record frame header size: payload length plus
// CRC32C of the payload, both little-endian uint32.
const frameLen = 8

// readBufBytes sizes a Reader's buffer over its source: one read per
// ~70 warp-memory records of a file, where reading the file directly
// took two per record.
const readBufBytes = 32 << 10

// castagnoli is the CRC32C table (the polynomial used by iSCSI and
// most storage formats; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// IOError marks a failure in the journal's underlying storage (as
// opposed to corrupt journal *content*); errors.As tells the two apart.
type IOError struct {
	Op  string
	Err error
}

func (e *IOError) Error() string { return "journal: " + e.Op + ": " + e.Err.Error() }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *IOError) Unwrap() error { return e.Err }

// Writer appends CRC-framed records to an underlying stream. It is
// not safe for concurrent use.
type Writer struct {
	w     io.Writer
	frame [frameLen]byte
	err   error
}

// NewWriter starts a fresh journal on w, writing the file header.
func NewWriter(w io.Writer) (*Writer, error) {
	jw := &Writer{w: w}
	var hdr [headerLen]byte
	copy(hdr[:], Magic)
	binary.LittleEndian.PutUint32(hdr[len(Magic):], Version)
	if _, err := w.Write(hdr[:]); err != nil {
		jw.err = &IOError{Op: "write header", Err: err}
		return nil, jw.err
	}
	return jw, nil
}

// ResumeWriter continues an existing journal on w without rewriting
// the file header; the caller must have positioned w at the end of the
// last intact record (see Reader's Salvage).
func ResumeWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// Append frames and writes one record payload. After the first
// failure the writer is sticky-failed: every later Append returns the
// same *IOError without touching the stream again.
func (w *Writer) Append(payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("journal: record of %d bytes exceeds MaxRecordBytes", len(payload))
	}
	binary.LittleEndian.PutUint32(w.frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.frame[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.w.Write(w.frame[:]); err != nil {
		w.err = &IOError{Op: "write frame", Err: err}
		return w.err
	}
	if _, err := w.w.Write(payload); err != nil {
		w.err = &IOError{Op: "write payload", Err: err}
		return w.err
	}
	return nil
}

// Salvage reports what a Reader recovered from a journal.
type Salvage struct {
	// Records is how many intact records were read.
	Records int
	// Bytes is the file offset just past the last intact record — the
	// safe truncation point for resuming appends.
	Bytes int64
	// Truncated is true when the journal did not end cleanly: a torn
	// frame, a CRC mismatch, or an implausible length stopped the scan.
	Truncated bool
	// Reason describes why the scan stopped early (empty when clean).
	Reason string
}

func (s Salvage) String() string {
	if !s.Truncated {
		return fmt.Sprintf("clean journal: %d records, %d bytes", s.Records, s.Bytes)
	}
	return fmt.Sprintf("damaged journal: salvaged %d intact records (%d bytes); %s", s.Records, s.Bytes, s.Reason)
}

// ErrTruncated is returned by Reader.Next once the scan hits damage;
// the longest intact prefix has already been delivered.
var ErrTruncated = errors.New("journal: truncated or corrupt tail")

// Reader scans a framed journal, delivering intact record payloads in
// order and stopping — never panicking — at the first sign of damage.
// It buffers its source, so it may read past the last record Next
// returned; a caller that reuses the source afterwards positions it
// from Salvage's Bytes.
type Reader struct {
	r       *bufio.Reader
	salvage Salvage
	frame   [frameLen]byte
	buf     []byte
	last    int64 // framed size of the payload Next just returned
	done    bool
	err     error
}

// NewReader validates the file header and prepares to scan records.
// A missing or foreign header yields an error immediately; a damaged
// body is reported later, through Next and Salvage.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, readBufBytes)
	var hdr [headerLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("journal: reading header: %w", err)
	}
	if string(hdr[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("journal: bad magic %q", hdr[:len(Magic)])
	}
	v := binary.LittleEndian.Uint32(hdr[len(Magic):])
	if v == 0 || v > Version {
		return nil, fmt.Errorf("journal: unsupported format version %d (reader speaks <= %d)", v, Version)
	}
	return &Reader{r: br, salvage: Salvage{Bytes: int64(headerLen)}}, nil
}

// Next returns the next intact record payload. It returns io.EOF at a
// clean end of journal and ErrTruncated when the remaining bytes are
// torn or corrupt; in both cases Salvage describes what was read. The
// returned slice is reused by the following Next call.
func (r *Reader) Next() ([]byte, error) {
	if r.done {
		return nil, r.err
	}
	n, err := io.ReadFull(r.r, r.frame[:])
	if err == io.EOF && n == 0 {
		return nil, r.stop(io.EOF, "")
	}
	if err != nil {
		return nil, r.stop(ErrTruncated, fmt.Sprintf("torn frame header (%d of %d bytes)", n, frameLen))
	}
	length := binary.LittleEndian.Uint32(r.frame[0:4])
	want := binary.LittleEndian.Uint32(r.frame[4:8])
	if length > MaxRecordBytes {
		return nil, r.stop(ErrTruncated, fmt.Sprintf("implausible record length %d", length))
	}
	if cap(r.buf) < int(length) {
		r.buf = make([]byte, length)
	}
	payload := r.buf[:length]
	if n, err := io.ReadFull(r.r, payload); err != nil {
		return nil, r.stop(ErrTruncated, fmt.Sprintf("torn payload (%d of %d bytes)", n, length))
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, r.stop(ErrTruncated, fmt.Sprintf("CRC mismatch (want %#x, got %#x)", want, got))
	}
	r.last = int64(frameLen) + int64(length)
	r.salvage.Records++
	r.salvage.Bytes += r.last
	return payload, nil
}

// Reject refuses the payload Next just returned: intact on disk, but
// unusable to the caller, such as a record that does not decode. The
// scan ends before it, as at a corrupt frame: Salvage's Records and
// Bytes move back to the previous record, the salvage reads truncated
// with reason, and Next returns ErrTruncated from then on. Reject does
// nothing unless the last Next call returned a payload.
func (r *Reader) Reject(reason string) {
	if r.done || r.last == 0 {
		return
	}
	r.salvage.Records--
	r.salvage.Bytes -= r.last
	r.stop(ErrTruncated, reason)
}

func (r *Reader) stop(err error, reason string) error {
	r.done = true
	r.err = err
	if err != io.EOF {
		r.salvage.Truncated = true
		r.salvage.Reason = reason
	}
	return err
}

// Salvage reports the scan outcome so far; it is final once Next has
// returned an error.
func (r *Reader) Salvage() Salvage { return r.salvage }
