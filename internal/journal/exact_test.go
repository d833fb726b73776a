package journal_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"haccrg"
	"haccrg/internal/gpu"
	"haccrg/internal/harness"
	"haccrg/internal/journal"
)

// suite holds the ten Table II benchmarks' journals at scale 1 on the
// Table I machine under DefaultDetection: what perfbench's
// replay-service workload uploads. Recorded once per test binary.
var suite struct {
	once     sync.Once
	names    []string
	journals [][]byte
	err      error
}

func suiteJournals(tb testing.TB) ([]string, [][]byte) {
	tb.Helper()
	suite.once.Do(func() {
		for _, b := range haccrg.Benchmarks() {
			var buf bytes.Buffer
			det := haccrg.DefaultDetection()
			if _, err := haccrg.RunBenchmark(b.Name, haccrg.RunOptions{Detection: &det, Scale: 1, Record: &buf}); err != nil {
				suite.err = fmt.Errorf("recording %s: %w", b.Name, err)
				return
			}
			suite.names = append(suite.names, b.Name)
			suite.journals = append(suite.journals, buf.Bytes())
		}
	})
	if suite.err != nil {
		tb.Fatal(suite.err)
	}
	return suite.names, suite.journals
}

// allKinds is every detector kind a journal can replay through.
var allKinds = []harness.DetectorKind{
	harness.DetOff, harness.DetShared, harness.DetGlobal, harness.DetSharedGlobal,
	harness.DetFig8, harness.DetSoftware, harness.DetGRace,
}

// replayBoth replays data through two detectors of one kind, built as
// the daemon builds them, by Replay and by the reference, and fails the
// test unless the results are identical. It returns Replay's result and
// the bytes its read-ahead grew to hold.
func replayBoth(t *testing.T, what string, data []byte, kind harness.DetectorKind) (*journal.ReplayResult, int) {
	t.Helper()
	build := func() gpu.Detector {
		det, _, err := harness.DetectorForJournal(bytes.NewReader(data), kind)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return det
	}
	got, held, err := journal.ReplayHeld(bytes.NewReader(data), build())
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, err := journal.ReplayReference(bytes.NewReader(data), build())
	if err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s through %s:\n got %s\nwant %s", what, kind, summary(got), summary(want))
	}
	return got, held
}

func summary(r *journal.ReplayResult) string {
	return fmt.Sprintf("salvage %v, %d kernels, %d events, recorded %d, replayed %d, match %v",
		r.Salvage, r.Kernels, r.MemEvents, len(r.Recorded), len(r.Replayed), r.Match)
}

// TestReplayMatchesReference is the streaming replay's exactness gate:
// each of the ten scale-1 journals, replayed through every detector
// kind, gives the reference's result — salvage, meta, counts, recorded
// and replayed verdicts. Through the recorded kind it matches, and its
// read-ahead holds nothing, since each fence response is the record
// after the event that asked for it.
func TestReplayMatchesReference(t *testing.T) {
	names, journals := suiteJournals(t)
	for i, data := range journals {
		for _, kind := range allKinds {
			res, held := replayBoth(t, names[i], data, kind)
			if kind != harness.DetSharedGlobal {
				continue
			}
			if !res.Match {
				t.Errorf("%s: replay through the recorded kind does not match", names[i])
			}
			if held != 0 {
				t.Errorf("%s: the read-ahead held %d bytes of an inline-layout journal", names[i], held)
			}
		}
	}
}

// TestReplayKernelEndLayoutMatchesReference: on the layout the sharded
// engines of earlier versions wrote, the read-ahead holds payloads,
// and the replay still gives the reference's result through every
// kind, under a fault plan too.
func TestReplayKernelEndLayoutMatchesReference(t *testing.T) {
	det := haccrg.DefaultDetection()
	plain, _ := recordRun(t, "reduce", haccrg.RunOptions{Detection: &det})
	faulted, _ := recordRun(t, "reduce", haccrg.RunOptions{
		Detection: &det, Inject: []string{"reduce.bar0"},
		FaultPlan: "flip:rate=2e-4;queue:cap=8,drain=1", FaultSeed: 42,
	})
	_, journals := suiteJournals(t)
	cases := map[string][]byte{
		"reduce":         kernelEndFences(t, plain),
		"reduce-faulted": kernelEndFences(t, faulted),
		"psum-scale1":    kernelEndFences(t, journals[indexOf(t, "psum")]),
	}
	for what, data := range cases {
		for _, kind := range allKinds {
			res, held := replayBoth(t, what, data, kind)
			if kind == harness.DetSharedGlobal {
				if !res.Match {
					t.Errorf("%s: replay through the recorded kind does not match", what)
				}
				if held == 0 {
					t.Errorf("%s: the read-ahead held nothing: the layout was not exercised", what)
				}
			}
		}
	}
}

func indexOf(t *testing.T, bench string) int {
	t.Helper()
	names, _ := suiteJournals(t)
	for i, n := range names {
		if n == bench {
			return i
		}
	}
	t.Fatalf("no %s journal", bench)
	return -1
}

// rewrite copies a journal record by record through edit, which
// returns the payloads to write in place of each one.
func rewrite(t *testing.T, data []byte, edit func(i int, payload []byte) [][]byte) []byte {
	t.Helper()
	r, err := journal.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w, err := journal.NewWriter(&out)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		p, err := r.Next()
		if err != nil {
			break
		}
		for _, q := range edit(i, p) {
			if err := w.Append(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s := r.Salvage(); s.Truncated {
		t.Fatalf("source journal truncated: %v", s)
	}
	return out.Bytes()
}

// TestReplayUndecodableMidKernel: a record whose CRC is intact but
// which does not decode ends the replay before it, in both layouts, as
// in the reference: the salvage counts only the records before it,
// and the replay serves no fence response from beyond it. On the
// kernel-end layout the record sits just before the kernel's fence
// responses, so the detector's first query reads ahead onto it.
func TestReplayUndecodableMidKernel(t *testing.T) {
	det := haccrg.DefaultDetection()
	data, _ := recordRun(t, "reduce", haccrg.RunOptions{Detection: &det})
	empty, err := journal.AppendRecord(nil, &journal.Record{Type: journal.RecWarpMem, Ev: &gpu.WarpMemEvent{}})
	if err != nil {
		t.Fatal(err)
	}
	undecodable := append(empty, 0) // a trailing byte
	for what, src := range map[string][]byte{"inline": data, "kernel-end": kernelEndFences(t, data)} {
		n, firstFence := 0, -1
		rewrite(t, src, func(i int, p []byte) [][]byte {
			if journal.RecType(p[0]) == journal.RecFence && firstFence < 0 {
				firstFence = i
			}
			n = i + 1
			return nil
		})
		at := n / 2
		if what == "kernel-end" {
			at = firstFence
		}
		var before int64
		bad := rewrite(t, src, func(i int, p []byte) [][]byte {
			if i < at {
				before += int64(8 + len(p))
			}
			if i == at {
				return [][]byte{undecodable, p}
			}
			return [][]byte{p}
		})
		for _, kind := range allKinds {
			res, _ := replayBoth(t, what, bad, kind)
			s := res.Salvage
			if !s.Truncated || s.Records != at || s.Bytes != int64(len(journal.Magic)+4)+before {
				t.Errorf("%s through %s: salvage %v, want truncated after %d records, %d bytes",
					what, kind, s, at, int64(len(journal.Magic)+4)+before)
			}
			if res.Recorded != nil || res.Kernels != 1 {
				t.Errorf("%s through %s: %s, want one kernel and no verdict", what, kind, summary(res))
			}
		}
	}
}

// TestReplayAllocsFlat: what a replay allocates does not grow with the
// journal. A journal whose warp-memory records each appear k times
// replays through gpu.NopDetector with as many allocations, and about
// as many bytes, as the journal itself.
func TestReplayAllocsFlat(t *testing.T) {
	det := haccrg.DefaultDetection()
	data, _ := recordRun(t, "scan", haccrg.RunOptions{Detection: &det})
	repeat := func(k int) []byte {
		return rewrite(t, data, func(_ int, p []byte) [][]byte {
			if journal.RecType(p[0]) != journal.RecWarpMem {
				return [][]byte{p}
			}
			out := make([][]byte, k)
			for i := range out {
				out[i] = p
			}
			return out
		})
	}
	measure := func(j []byte) (mallocs, total uint64) {
		replay := func() {
			if _, err := journal.Replay(bytes.NewReader(j), gpu.NopDetector{}); err != nil {
				t.Fatal(err)
			}
		}
		replay() // warm up
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		replay()
		runtime.ReadMemStats(&b)
		return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
	}
	a1, b1 := measure(repeat(1))
	a8, b8 := measure(repeat(8))
	t.Logf("k=1: %d allocations, %d bytes; k=8: %d allocations, %d bytes", a1, b1, a8, b8)
	if a8 > a1+4 || b8 > b1+4096 {
		t.Errorf("repeating each warp-memory record 8 times took the replay from %d allocations (%d bytes) to %d (%d bytes)",
			a1, b1, a8, b8)
	}
}

// BenchmarkReplaySuite replays the ten scale-1 journals through the
// detector the daemon's replay job builds (the recorded shared+global
// RDU), per op, and reports host time and bytes allocated per journal
// record.
func BenchmarkReplaySuite(b *testing.B) {
	_, journals := suiteJournals(b)
	records := 0
	for _, data := range journals {
		res, err := journal.Replay(bytes.NewReader(data), nil)
		if err != nil {
			b.Fatal(err)
		}
		records += res.Salvage.Records
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, data := range journals {
			det, _, err := harness.DetectorForJournal(bytes.NewReader(data), "")
			if err != nil {
				b.Fatal(err)
			}
			res, err := journal.Replay(bytes.NewReader(data), det)
			if err != nil || !res.Match {
				b.Fatalf("replay: match %v, err %v", res != nil && res.Match, err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(records)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/record")
}
