package journal_test

import (
	"bytes"
	"sort"
	"testing"

	"haccrg"
	"haccrg/internal/harness"
	"haccrg/internal/journal"
)

// recordRun executes one benchmark on the small test GPU with
// journaling on, returning the journal bytes and the live result.
func recordRun(t *testing.T, bench string, opts haccrg.RunOptions) ([]byte, *haccrg.RunResult) {
	t.Helper()
	var buf bytes.Buffer
	opts.Record = &buf
	small := haccrg.SmallGPU()
	opts.GPU = &small
	res, err := haccrg.RunBenchmark(bench, opts)
	if err != nil {
		t.Fatalf("record %s: %v", bench, err)
	}
	return buf.Bytes(), res
}

// liveVerdict renders a live run's races in the journal's canonical
// verdict form (sorted String()s).
func liveVerdict(res *haccrg.RunResult) []string {
	out := make([]string, len(res.Races))
	for i, r := range res.Races {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func replayThrough(t *testing.T, data []byte, rc harness.RunConfig) *journal.ReplayResult {
	t.Helper()
	det, err := harness.DetectorFor(rc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := journal.Replay(bytes.NewReader(data), det)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestReplayMatchesLiveRDU is the differential oracle: replaying a
// recorded journal through a fresh hardware-RDU detector must
// reproduce the live run's race findings byte for byte.
func TestReplayMatchesLiveRDU(t *testing.T) {
	for _, bench := range []string{"scan", "reduce", "hash"} {
		det := haccrg.DefaultDetection()
		data, live := recordRun(t, bench, haccrg.RunOptions{Detection: &det})
		rep := replayThrough(t, data, harness.RunConfig{Detector: harness.DetSharedGlobal})
		if rep.Salvage.Truncated {
			t.Fatalf("%s: intact journal reported truncated: %+v", bench, rep.Salvage)
		}
		if rep.Recorded == nil {
			t.Fatalf("%s: no recorded verdict in journal", bench)
		}
		if !rep.Match {
			t.Errorf("%s: replay diverged: recorded %d race(s), replayed %d",
				bench, len(rep.Recorded), len(rep.Replayed))
		}
		want := liveVerdict(live)
		if len(rep.Replayed) != len(want) {
			t.Fatalf("%s: replayed %d race(s), live run found %d", bench, len(rep.Replayed), len(want))
		}
		for i := range want {
			if rep.Replayed[i] != want[i] {
				t.Fatalf("%s: replayed race %d = %q, live %q", bench, i, rep.Replayed[i], want[i])
			}
		}
	}
}

// TestReplayUnderFaultPlan extends the oracle to fault injection: the
// injector is a pure function of (plan, seed) and the event stream, so
// a replayed detector built with the same plan reproduces the faulted
// verdict exactly — dropped checks, corruptions and all.
func TestReplayUnderFaultPlan(t *testing.T) {
	const plan = "flip:rate=2e-4;queue:cap=8,drain=1"
	det := haccrg.DefaultDetection()
	data, live := recordRun(t, "reduce", haccrg.RunOptions{
		Detection: &det, Inject: []string{"reduce.bar0"},
		FaultPlan: plan, FaultSeed: 42,
	})
	rep := replayThrough(t, data, harness.RunConfig{
		Detector: harness.DetSharedGlobal, FaultPlan: plan, FaultSeed: 42,
	})
	if rep.Recorded == nil {
		t.Fatal("no recorded verdict in journal")
	}
	if !rep.Match {
		t.Errorf("faulted replay diverged: recorded %d race(s), replayed %d",
			len(rep.Recorded), len(rep.Replayed))
	}
	if got, want := rep.Replayed, liveVerdict(live); len(got) != len(want) {
		t.Errorf("replayed %d race(s), live found %d", len(got), len(want))
	}
}

// TestReplayThroughOtherDetector replays an RDU-recorded journal
// through the GRace software baseline: a heterogeneous replay must run
// to completion with a well-defined verdict (agreement is not
// expected — the baselines detect different race classes).
func TestReplayThroughOtherDetector(t *testing.T) {
	det := haccrg.DefaultDetection()
	data, _ := recordRun(t, "scan", haccrg.RunOptions{Detection: &det})
	rep := replayThrough(t, data, harness.RunConfig{Detector: harness.DetGRace})
	if rep.Recorded == nil {
		t.Fatal("no recorded verdict in journal")
	}
	if rep.Kernels == 0 || rep.MemEvents == 0 {
		t.Errorf("replay saw %d kernels / %d events, want a full stream", rep.Kernels, rep.MemEvents)
	}
}

// TestReplayTruncatedJournal replays a torn journal: the salvaged
// prefix must replay cleanly (forensics on a crashed run), with the
// detector closed so its verdict is well-defined.
func TestReplayTruncatedJournal(t *testing.T) {
	det := haccrg.DefaultDetection()
	data, _ := recordRun(t, "scan", haccrg.RunOptions{Detection: &det})
	cut := len(data) / 2
	rep := replayThrough(t, data[:cut], harness.RunConfig{Detector: harness.DetSharedGlobal})
	if rep.Salvage.Bytes > int64(cut) {
		t.Fatalf("salvage claims %d bytes of a %d-byte prefix", rep.Salvage.Bytes, cut)
	}
	if rep.Kernels == 0 {
		t.Fatal("truncated replay saw no kernel at all")
	}
	if rep.Replayed == nil {
		t.Fatal("truncated replay produced no verdict")
	}
	if rep.Match && rep.Recorded == nil {
		t.Error("match reported without a recorded verdict")
	}
}

// kernelEndFences rewrites a journal into the layout earlier versions
// wrote when recording under their sharded detector engine: each
// kernel's fence responses were logged just before its kernel-end
// record instead of inline after the event that consumed them. It
// fails the test unless at least one response actually moved.
func kernelEndFences(t *testing.T, data []byte) []byte {
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
	emit := func(rec *journal.Record) {
		b, err := journal.AppendRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	var pending []*journal.Record
	moved := false
	for {
		payload, err := r.Next()
		if err != nil {
			break
		}
		rec, err := journal.DecodeRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		switch rec.Type {
		case journal.RecFence:
			pending = append(pending, rec)
			continue
		case journal.RecKernelEnd:
			for _, f := range pending {
				emit(f)
			}
			pending = nil
		default:
			moved = moved || len(pending) > 0
		}
		emit(rec)
	}
	if s := r.Salvage(); s.Truncated {
		t.Fatalf("recorded journal truncated: %+v", s)
	}
	if !moved {
		t.Fatal("no fence response moved: the recording does not exercise the kernel-end layout")
	}
	return out.Bytes()
}

// TestReplayParallelRecording: journals recorded by earlier versions
// under their parallel detector engine carry each kernel's fence
// responses at kernel end rather than inline. Replay's fence cursor
// serves responses in journal order wherever they sit, so such a
// journal must still replay to its recorded verdict.
func TestReplayParallelRecording(t *testing.T) {
	det := haccrg.DefaultDetection()
	data, live := recordRun(t, "reduce", haccrg.RunOptions{Detection: &det})
	rep := replayThrough(t, kernelEndFences(t, data), harness.RunConfig{Detector: harness.DetSharedGlobal})
	if rep.Recorded == nil {
		t.Fatal("no recorded verdict in journal")
	}
	if !rep.Match {
		t.Errorf("kernel-end fence layout replay diverged: recorded %d race(s), replayed %d",
			len(rep.Recorded), len(rep.Replayed))
	}
	if got, want := rep.Replayed, liveVerdict(live); len(got) != len(want) {
		t.Errorf("replayed %d race(s), live run found %d", len(got), len(want))
	}
}

// TestReplayParallelRecordingUnderFaultPlan: the same layout replays
// to its recorded verdict under fault injection, where the replayed
// injector must also draw the recorded run's decisions.
func TestReplayParallelRecordingUnderFaultPlan(t *testing.T) {
	const plan = "flip:rate=2e-4;queue:cap=8,drain=1"
	det := haccrg.DefaultDetection()
	data, live := recordRun(t, "reduce", haccrg.RunOptions{
		Detection: &det, Inject: []string{"reduce.bar0"},
		FaultPlan: plan, FaultSeed: 42,
	})
	rep := replayThrough(t, kernelEndFences(t, data), harness.RunConfig{
		Detector: harness.DetSharedGlobal, FaultPlan: plan, FaultSeed: 42,
	})
	if rep.Recorded == nil {
		t.Fatal("no recorded verdict in journal")
	}
	if !rep.Match {
		t.Errorf("faulted kernel-end fence layout replay diverged: recorded %d race(s), replayed %d",
			len(rep.Recorded), len(rep.Replayed))
	}
	if got, want := rep.Replayed, liveVerdict(live); len(got) != len(want) {
		t.Errorf("replayed %d race(s), live run found %d", len(got), len(want))
	}
}

// TestReplayWitnessSeededRecording: a witness-seeded run reports some
// races with StaticWitness provenance. The journal's meta record
// carries the seed set, and the detector rebuilt from it replays the
// recorded verdict exactly; replaying under another detector kind
// leaves the seeds out.
func TestReplayWitnessSeededRecording(t *testing.T) {
	det := haccrg.DefaultDetection()
	data, live := recordRun(t, "scan", haccrg.RunOptions{Detection: &det, WitnessSeed: true})
	seeded := 0
	for _, r := range live.Races {
		if r.Provenance == "StaticWitness" {
			seeded++
		}
	}
	if seeded == 0 {
		t.Fatal("seeded scan run reported no StaticWitness races")
	}
	meta, err := journal.ReadMeta(bytes.NewReader(data))
	if err != nil || meta == nil || len(meta.Seeds) == 0 {
		t.Fatalf("meta record carries no seed set (meta %+v, err %v)", meta, err)
	}

	rd, rc, err := harness.DetectorForJournal(bytes.NewReader(data), "")
	if err != nil {
		t.Fatal(err)
	}
	if !rc.WitnessSeed {
		t.Error("detector rebuilt from a seeded journal is not seeded")
	}
	rep, err := journal.Replay(bytes.NewReader(data), rd)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match {
		t.Fatalf("seeded replay diverged: recorded %d race(s), replayed %d", len(rep.Recorded), len(rep.Replayed))
	}

	od, orc, err := harness.DetectorForJournal(bytes.NewReader(data), harness.DetGRace)
	if err != nil {
		t.Fatal(err)
	}
	if orc.WitnessSeed || orc.Detector != harness.DetGRace {
		t.Errorf("override config = %+v, want an unseeded grace-addr detector", orc)
	}
	if _, err := journal.Replay(bytes.NewReader(data), od); err != nil {
		t.Fatal(err)
	}
}

// TestRecordingIsTransparent: journaling must not change what the
// detector finds — a recorded run and an unrecorded run of the same
// configuration reach identical verdicts.
func TestRecordingIsTransparent(t *testing.T) {
	det := haccrg.DefaultDetection()
	small := haccrg.SmallGPU()
	plain, err := haccrg.RunBenchmark("scan", haccrg.RunOptions{Detection: &det, GPU: &small})
	if err != nil {
		t.Fatal(err)
	}
	_, recorded := recordRun(t, "scan", haccrg.RunOptions{Detection: &det})
	a, b := liveVerdict(plain), liveVerdict(recorded)
	if len(a) != len(b) {
		t.Fatalf("recording changed the verdict: %d vs %d race(s)", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("recording changed race %d: %q vs %q", i, a[i], b[i])
		}
	}
}
