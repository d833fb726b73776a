package journal

import (
	"bytes"
	"io"
	"testing"
)

// FuzzJournalReader feeds arbitrary bytes through the full decode
// path — header validation, frame scanning, record decoding — and
// replays them. Any input must yield a clean error or a salvaged
// prefix; a panic, an unbounded allocation, a salvage report that
// overruns the input, or a streaming replay that differs from the
// reference replay in its result, its calls or the fence responses
// it serves is a bug.
func FuzzJournalReader(f *testing.F) {
	// Seed corpus: a well-formed journal, its truncations, and light
	// corruptions, so the fuzzer starts near the interesting surface.
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []*Record{
		{Type: RecMeta, Meta: &Meta{Bench: "scan", Detector: "shared+global"}},
		{Type: RecBlockStart, SM: 1, SharedBase: 0, SharedSize: 256},
		{Type: RecWarpMem, Ev: sampleEvent()},
		{Type: RecFence, Block: 2, Warp: 1, FenceID: 3},
		{Type: RecVerdict, Verdict: []string{"race a"}},
	} {
		b, err := AppendRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		if err := w.Append(b); err != nil {
			f.Fatal(err)
		}
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:headerLen])
	f.Add([]byte(Magic))
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/2] ^= 0xff
	f.Add(mutated)
	f.Add([]byte{})
	small := smallJournal(f)
	f.Add(small)
	f.Add(small[:len(small)*2/3])

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // rejected header: fine
		}
		records := 0
		for {
			payload, err := r.Next()
			if err != nil {
				if err != io.EOF && err != ErrTruncated {
					t.Fatalf("Next returned unexpected error %v", err)
				}
				break
			}
			records++
			// Decoding must be panic-free even on CRC-colliding garbage.
			_, _ = DecodeRecord(payload)
		}
		s := r.Salvage()
		if s.Records != records {
			t.Fatalf("salvage counts %d records, read %d", s.Records, records)
		}
		if s.Bytes < int64(headerLen) || s.Bytes > int64(len(data)) {
			t.Fatalf("salvage offset %d outside [header, %d]", s.Bytes, len(data))
		}
		if diff := sameReplay(data); diff != "" {
			t.Fatal(diff)
		}
	})
}
