package fault

import (
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"queue:cap=16,drain=1",
		"flip:rate=1e-05,ecc",
		"stuck:perki=4",
		"bloom:fill=0.9",
		"spike:extra=400,period=64",
		"queue:cap=8,drain=2;flip:rate=0.001;stuck:perki=16;bloom:fill=0.5;spike:extra=100,period=32",
	}
	for _, spec := range specs {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		back, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)) = %q: %v", spec, p.String(), err)
		}
		if *back != *p {
			t.Errorf("round trip %q: %+v vs %+v", spec, p, back)
		}
	}
}

// TestPlanStringIsCanonical: String() must be a fixed point of
// Parse∘String — the property journals and manifests rely on when they
// store a plan by its spec and rebuild it on replay. The specs here
// mirror the fault study's plan list plus the ecc-on-stuck combos
// whose flags String redistributes across clauses.
func TestPlanStringIsCanonical(t *testing.T) {
	specs := []string{
		"",
		"queue:cap=8,drain=1",
		"flip:rate=2e-4",
		"flip:rate=2e-4,ecc",
		"stuck:perki=8",
		"stuck:perki=8,ecc",
		"bloom:fill=0.9",
		"spike:extra=500,period=32",
		"flip:rate=2e-4;queue:cap=8,drain=1",
	}
	for _, spec := range specs {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		canon := p.String()
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q: not parseable: %v", spec, canon, err)
		}
		if *p2 != *p {
			t.Errorf("plan %q changed across canonicalization: %+v vs %+v", spec, p, p2)
		}
		if again := p2.String(); again != canon {
			t.Errorf("String not a fixed point for %q: %q then %q", spec, canon, again)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus:x=1",
		"queue:cap=-3",
		"flip:rate=2",
		"flip:rate=abc",
		"queue:cap=4,unknown=1",
		"stuck:perki=9999",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): expected error", spec)
		}
	}
}

func TestEmptyPlan(t *testing.T) {
	p, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Empty() {
		t.Errorf("empty spec: Empty() = false")
	}
	if in := New(p, 1); in != nil {
		t.Errorf("New(empty) = %v, want nil", in)
	}
	// Nil injectors are inert on every path.
	var in *Injector
	if got := in.Admit(UnitGlobal, 0, 100, 32); got != 32 {
		t.Errorf("nil Admit = %d, want 32", got)
	}
	if _, ok := in.FlipBit(UnitGlobal, 0, 52); ok {
		t.Error("nil FlipBit fired")
	}
	if _, ok := in.Stuck(UnitShared, 7); ok {
		t.Error("nil Stuck fired")
	}
	if _, ch := in.Saturate(UnitShared, 0, 1, 0xffff); ch {
		t.Error("nil Saturate changed signature")
	}
	if in.SpikeDelay(UnitGlobal, 0) != 0 {
		t.Error("nil SpikeDelay non-zero")
	}
}

func TestQueueAdmission(t *testing.T) {
	in := New(&Plan{QueueCap: 8, QueueDrain: 2}, 1)
	// Burst of 32 at cycle 0: only 8 fit.
	if got := in.Admit(UnitGlobal, 0, 0, 32); got != 8 {
		t.Fatalf("burst admit = %d, want 8", got)
	}
	// One cycle later only 2 have drained.
	if got := in.Admit(UnitGlobal, 0, 1, 32); got != 2 {
		t.Fatalf("admit after 1 cycle = %d, want 2", got)
	}
	// After a long idle gap the queue is empty again.
	if got := in.Admit(UnitGlobal, 0, 1000, 5); got != 5 {
		t.Fatalf("admit after drain = %d, want 5", got)
	}
	// Queues are per-unit: a different partition is unaffected.
	if got := in.Admit(UnitGlobal, 1, 1000, 8); got != 8 {
		t.Fatalf("other unit admit = %d, want 8", got)
	}
}

func TestStuckDeterministicFraction(t *testing.T) {
	in := New(&Plan{StuckPerKi: 64}, 42)
	stuck := 0
	const N = 1 << 14
	for g := uint64(0); g < N; g++ {
		p1, ok1 := in.Stuck(UnitGlobal, g)
		p2, ok2 := in.Stuck(UnitGlobal, g)
		if ok1 != ok2 || p1 != p2 {
			t.Fatalf("Stuck(%d) not stable", g)
		}
		if ok1 {
			stuck++
		}
	}
	// ~64/1024 = 6.25% of granules; allow generous tolerance.
	frac := float64(stuck) / N
	if frac < 0.03 || frac > 0.12 {
		t.Errorf("stuck fraction %.4f far from 1/16", frac)
	}
	// A different seed picks a different set.
	in2 := New(&Plan{StuckPerKi: 64}, 43)
	same := 0
	for g := uint64(0); g < N; g++ {
		_, a := in.Stuck(UnitGlobal, g)
		_, b := in2.Stuck(UnitGlobal, g)
		if a && b {
			same++
		}
	}
	if same == stuck {
		t.Error("stuck sets identical across seeds")
	}
}

func TestFlipDeterminism(t *testing.T) {
	run := func() []int {
		in := New(&Plan{FlipRate: 0.25}, 7)
		var out []int
		for i := 0; i < 1000; i++ {
			if bit, ok := in.FlipBit(UnitGlobal, 3, 52); ok {
				out = append(out, bit)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no flips at rate 0.25")
	}
	if len(a) != len(b) {
		t.Fatalf("flip sequence lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flip %d differs: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= 52 {
			t.Fatalf("flip bit %d outside entry", a[i])
		}
	}
}

func TestSaturateReachesFill(t *testing.T) {
	in := New(&Plan{BloomFill: 1}, 3)
	const mask = 0xffff
	out, changed := in.Saturate(UnitShared, 2, 0x0101, mask)
	if !changed {
		t.Fatal("saturation did not change a sparse signature")
	}
	if out&mask != mask {
		t.Errorf("fill=1 signature = %#x, want all of %#x", out, mask)
	}
	if out&^mask != 0 {
		t.Errorf("saturation leaked outside mask: %#x", out)
	}
}

func TestSpikePeriod(t *testing.T) {
	in := New(&Plan{SpikeExtra: 100, SpikePeriod: 4}, 1)
	var spikes int
	for i := 0; i < 16; i++ {
		if d := in.SpikeDelay(UnitGlobal, 1); d != 0 {
			if d != 100 {
				t.Fatalf("spike delay = %d, want 100", d)
			}
			spikes++
		}
	}
	if spikes != 4 {
		t.Errorf("spikes in 16 fetches = %d, want 4", spikes)
	}
	// Spike phases are per-unit: fetches at another partition do not
	// advance this one's phase.
	if d := in.SpikeDelay(UnitGlobal, 2); d != 0 {
		t.Errorf("first fetch at fresh unit spiked: %d", d)
	}
}

// TestStreamIndependence: the fault sequence one RDU draws must not
// depend on how checks at other RDUs interleave with it, so each RDU's
// fault decisions are a function of its own check sequence alone.
func TestStreamIndependence(t *testing.T) {
	draw := func(in *Injector, id, n int) []int {
		var out []int
		for i := 0; i < n; i++ {
			if bit, ok := in.FlipBit(UnitGlobal, id, 52); ok {
				out = append(out, bit)
			}
		}
		return out
	}
	// Solo run: partition 0 alone.
	solo := draw(New(&Plan{FlipRate: 0.25}, 7), 0, 500)
	// Interleaved run: partition 1 draws between every partition-0 draw.
	in := New(&Plan{FlipRate: 0.25}, 7)
	var inter []int
	for i := 0; i < 500; i++ {
		if bit, ok := in.FlipBit(UnitGlobal, 0, 52); ok {
			inter = append(inter, bit)
		}
		in.FlipBit(UnitGlobal, 1, 52)
	}
	if len(solo) == 0 {
		t.Fatal("no flips at rate 0.25")
	}
	if len(solo) != len(inter) {
		t.Fatalf("interleaving changed flip count: %d vs %d", len(solo), len(inter))
	}
	for i := range solo {
		if solo[i] != inter[i] {
			t.Fatalf("flip %d differs under interleaving: %d vs %d", i, solo[i], inter[i])
		}
	}
	// Distinct units draw distinct sequences.
	a := draw(New(&Plan{FlipRate: 0.5}, 9), 0, 400)
	b := draw(New(&Plan{FlipRate: 0.5}, 9), 1, 400)
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("partitions 0 and 1 drew identical flip sequences")
		}
	}
}
