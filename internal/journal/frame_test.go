package journal

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// buildJournal frames the given payloads into a complete journal.
func buildJournal(t *testing.T, payloads ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// readAll drains a journal, returning the intact payload copies and
// the final salvage report. It fails the test on a reader-construction
// error only; body damage is expected and reported via salvage.
func readAll(t *testing.T, data []byte) ([][]byte, Salvage) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var out [][]byte
	for {
		p, err := r.Next()
		if err != nil {
			if err != io.EOF && !errors.Is(err, ErrTruncated) {
				t.Fatalf("Next: unexpected error %v", err)
			}
			return out, r.Salvage()
		}
		out = append(out, append([]byte(nil), p...))
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), {}, []byte("gamma gamma gamma")}
	data := buildJournal(t, payloads...)
	got, s := readAll(t, data)
	if s.Truncated {
		t.Fatalf("clean journal reported truncated: %v", s)
	}
	if s.Records != len(payloads) || int(s.Bytes) != len(data) {
		t.Errorf("salvage = %+v, want %d records / %d bytes", s, len(payloads), len(data))
	}
	if len(got) != len(payloads) {
		t.Fatalf("read %d records, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], payloads[i])
		}
	}
}

// TestTornWrite cuts the journal at every possible byte offset: the
// reader must salvage exactly the records whose frames fit in the
// prefix, and report truncation whenever the cut is mid-record.
func TestTornWrite(t *testing.T) {
	payloads := [][]byte{[]byte("one"), []byte("twotwo"), []byte("three three")}
	data := buildJournal(t, payloads...)
	// A cut exactly at a record boundary is indistinguishable from a
	// clean end; truncation must be reported for every other cut.
	boundaries := map[int]bool{headerLen: true}
	off := headerLen
	for _, p := range payloads {
		off += frameLen + len(p)
		boundaries[off] = true
	}
	for cut := headerLen; cut < len(data); cut++ {
		got, s := readAll(t, data[:cut])
		if int(s.Bytes) > cut {
			t.Fatalf("cut %d: salvage claims %d bytes beyond the file", cut, s.Bytes)
		}
		for i, p := range got {
			if !bytes.Equal(p, payloads[i]) {
				t.Fatalf("cut %d: salvaged record %d = %q, want %q", cut, i, p, payloads[i])
			}
		}
		if s.Truncated == boundaries[cut] {
			t.Errorf("cut %d: truncated=%v, want %v", cut, s.Truncated, !boundaries[cut])
		}
	}
}

// TestBitCorruption flips one bit at every position in the body: the
// reader must never deliver a corrupted payload — every salvaged
// record is an exact prefix of the originals.
func TestBitCorruption(t *testing.T) {
	payloads := [][]byte{[]byte("first record"), []byte("second record"), []byte("third record")}
	data := buildJournal(t, payloads...)
	for pos := headerLen; pos < len(data); pos++ {
		corrupt := append([]byte(nil), data...)
		corrupt[pos] ^= 0x40
		got, _ := readAll(t, corrupt)
		if len(got) >= len(payloads) {
			t.Fatalf("flip at %d: all %d records survived corruption", pos, len(got))
		}
		for i, p := range got {
			if !bytes.Equal(p, payloads[i]) {
				t.Fatalf("flip at %d: delivered corrupted record %d: %q", pos, i, p)
			}
		}
	}
}

func TestHeaderValidation(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"short":       []byte("HACC"),
		"wrong magic": append([]byte("NOTAJRNL"), 1, 0, 0, 0),
		"version 0":   append([]byte(Magic), 0, 0, 0, 0),
		"future":      append([]byte(Magic), 99, 0, 0, 0),
	}
	for name, data := range cases {
		if _, err := NewReader(bytes.NewReader(data)); err == nil {
			t.Errorf("%s header accepted", name)
		}
	}
}

func TestImplausibleLength(t *testing.T) {
	data := buildJournal(t, []byte("ok"))
	// Append a frame whose length field is absurd.
	data = append(data, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0)
	got, s := readAll(t, data)
	if len(got) != 1 || !s.Truncated {
		t.Errorf("salvaged %d records, truncated=%v; want 1 record and truncation", len(got), s.Truncated)
	}
}

// TestResumeWriter appends through a ResumeWriter at the salvage
// offset and checks the combined file reads back whole.
func TestResumeWriter(t *testing.T) {
	data := buildJournal(t, []byte("kept"), []byte("also kept"))
	// Simulate a torn tail, then resume at the salvage point.
	torn := append(append([]byte(nil), data...), 0x01, 0x02, 0x03)
	_, s := readAll(t, torn)
	if !s.Truncated || int(s.Bytes) != len(data) {
		t.Fatalf("salvage = %+v, want truncation at %d", s, len(data))
	}
	var buf bytes.Buffer
	buf.Write(torn[:s.Bytes])
	w := ResumeWriter(&buf)
	if err := w.Append([]byte("resumed")); err != nil {
		t.Fatal(err)
	}
	got, s2 := readAll(t, buf.Bytes())
	if s2.Truncated || len(got) != 3 || string(got[2]) != "resumed" {
		t.Errorf("after resume: %d records (truncated=%v), want 3 clean", len(got), s2.Truncated)
	}
}

// TestReject refuses the second of three intact records: the salvage
// moves back before it and reads truncated with the reason, the scan
// ends there, and a second Reject changes nothing.
func TestReject(t *testing.T) {
	data := buildJournal(t, []byte("kept"), []byte("refused"), []byte("never read"))
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	r.Reject("nothing read yet")
	for i := 0; i < 2; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
	}
	r.Reject("not a record")
	r.Reject("again")
	want := Salvage{Records: 1, Bytes: int64(headerLen + frameLen + len("kept")), Truncated: true, Reason: "not a record"}
	if s := r.Salvage(); s != want {
		t.Errorf("salvage = %+v, want %+v", s, want)
	}
	if _, err := r.Next(); !errors.Is(err, ErrTruncated) {
		t.Errorf("Next after Reject = %v, want ErrTruncated", err)
	}
}

// errWriter fails after n successful writes.
type errWriter struct {
	n   int
	err error
}

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	w.n--
	return len(p), nil
}

func TestWriterStickyIOError(t *testing.T) {
	boom := errors.New("disk gone")
	w, err := NewWriter(&errWriter{n: 3, err: boom})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("fits")); err != nil {
		t.Fatalf("first append: %v", err)
	}
	var ioe *IOError
	err = w.Append([]byte("fails"))
	if !errors.As(err, &ioe) || !errors.Is(err, boom) {
		t.Fatalf("failed append returned %v, want an IOError wrapping the cause", err)
	}
	if err2 := w.Append([]byte("after")); !errors.As(err2, &ioe) {
		t.Fatalf("sticky error lost: %v", err2)
	}
}
