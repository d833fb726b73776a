package journal_test

import (
	"bytes"
	"strings"
	"testing"

	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/isa"
	"haccrg/internal/journal"
)

// racyKernel: the two warps of one block store to the same shared
// words (tid mod 32), a WAW race before the barrier.
func racyKernel() *gpu.Kernel {
	b := isa.NewBuilder("traced")
	b.Sreg(1, isa.SregTid)
	b.Remi(2, 1, 32)
	b.Muli(2, 2, 4)
	b.St(isa.SpaceShared, 2, 0, 1, 4)
	b.Bar()
	b.Ld(3, isa.SpaceShared, 2, 0, 4)
	b.Exit()
	return &gpu.Kernel{Name: "traced", Prog: b.MustBuild(), GridDim: 1, BlockDim: 64, SharedBytes: 256}
}

// recordLaunches journals launches launches of racyKernel checked by
// det (nil for detection off) and returns the journal and its
// timeline.
func recordLaunches(t *testing.T, det gpu.Detector, launches int) ([]byte, string) {
	t.Helper()
	var jnl bytes.Buffer
	rec, err := journal.NewRecorder(&jnl, det)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := gpu.NewDevice(gpu.TestConfig(), 1<<14, rec)
	if err != nil {
		t.Fatal(err)
	}
	for range launches {
		if _, err := dev.Launch(racyKernel()); err != nil {
			t.Fatal(err)
		}
	}
	tl, err := journal.Timeline(bytes.NewReader(jnl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return jnl.Bytes(), tl
}

// timelineCounts tallies a timeline's lines by record type, the field
// after the race marker and the cycle.
func timelineCounts(tl string) map[string]int {
	n := map[string]int{}
	for _, line := range strings.Split(tl, "\n") {
		if f := strings.Fields(strings.TrimPrefix(line, "!!")); len(f) >= 2 {
			n[f[1]]++
		}
	}
	return n
}

func sharedDetector() *core.Detector {
	opt := core.DefaultOptions()
	opt.Global = false
	opt.DetectStaleL1 = false
	opt.SharedGranularity = 4
	return core.MustNew(opt)
}

// TestTimelineCapturesLifecycle: each launch renders one kernel-start,
// one kernel-end and one barrier line, and a run without detection no
// race line.
func TestTimelineCapturesLifecycle(t *testing.T) {
	_, tl := recordLaunches(t, nil, 2)
	n := timelineCounts(tl)
	if n["kernel-start"] != 2 || n["kernel-end"] != 2 || n["barrier"] != 2 || len(n) != 3 {
		t.Fatalf("two launches render %v:\n%s", n, tl)
	}
	if !strings.HasPrefix(tl, "        0 kernel-start  traced\n") {
		t.Fatalf("timeline does not open with the kernel start:\n%s", tl)
	}
}

// TestTimelineMarksRaces: a detected run renders one line per race the
// detector reports, marked "!!" and carrying the race; a truncated
// journal renders the lines of its intact prefix; an unreadable header
// is an error.
func TestTimelineMarksRaces(t *testing.T) {
	det := sharedDetector()
	jnl, tl := recordLaunches(t, det, 1)
	if len(det.Races()) == 0 {
		t.Fatal("the racy kernel raced on no shared word")
	}
	races := 0
	for _, line := range strings.Split(tl, "\n") {
		if strings.HasPrefix(line, "!!") {
			races++
			if !strings.Contains(line, " race ") || !strings.Contains(line, " in traced: ") {
				t.Errorf("race line %q does not carry its race", line)
			}
		}
	}
	if races != len(det.Races()) || timelineCounts(tl)["race"] != races {
		t.Fatalf("%d race lines for %d races:\n%s", races, len(det.Races()), tl)
	}

	cut, err := journal.Timeline(bytes.NewReader(jnl[:len(jnl)/2]))
	if err != nil {
		t.Fatal(err)
	}
	if cut == "" || len(cut) >= len(tl) || !strings.HasPrefix(tl, cut) {
		t.Fatalf("half the journal renders %q, want a proper line prefix of\n%s", cut, tl)
	}
	if _, err := journal.Timeline(strings.NewReader("not a journal")); err == nil {
		t.Fatal("a journal without a header rendered")
	}
}
