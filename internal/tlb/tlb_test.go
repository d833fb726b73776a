package tlb

import (
	"math/rand"
	"testing"
)

// mustNew is New failing the test on error.
func mustNew(t testing.TB, cfg Config, mech Mechanism) *Model {
	t.Helper()
	m, err := New(cfg, mech)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func shadowOf(addr uint64) uint64 { return 1<<32 + addr*2 }

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{PageBits: 2, Entries: 64, Assoc: 4, ShadowEntries: 16, ShadowAssoc: 4},
		{PageBits: 12, Entries: 0, Assoc: 4, ShadowEntries: 16, ShadowAssoc: 4},
		{PageBits: 12, Entries: 64, Assoc: 3, ShadowEntries: 16, ShadowAssoc: 4},
		{PageBits: 12, Entries: 96, Assoc: 4, ShadowEntries: 16, ShadowAssoc: 4}, // 24 sets
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestHitAfterFill(t *testing.T) {
	m := mustNew(t, DefaultConfig, SeparateTLB)
	m.Translate(0x1000, shadowOf(0x1000), true)
	m.Translate(0x1008, shadowOf(0x1008), true) // same pages
	if m.Stats.RegularHits != 1 || m.Stats.RegularMisses != 1 {
		t.Errorf("regular stats %+v", m.Stats)
	}
	if m.Stats.ShadowHits != 1 || m.Stats.ShadowMisses != 1 {
		t.Errorf("shadow stats %+v", m.Stats)
	}
}

func TestAppendedBitKeepsClassesDistinct(t *testing.T) {
	// A shadow translation of page P must not satisfy an application
	// lookup of page P: the tag bit distinguishes them.
	m := mustNew(t, DefaultConfig, AppendedBit)
	m.Translate(0x5000, 0x5000, true) // shadow address == app address (adversarial)
	m.Translate(0x5000, 0x5000, true)
	if m.Stats.RegularMisses != 1 || m.Stats.ShadowMisses != 1 {
		t.Errorf("first access must miss both classes: %+v", m.Stats)
	}
	if m.Stats.RegularHits != 1 || m.Stats.ShadowHits != 1 {
		t.Errorf("second access must hit both classes: %+v", m.Stats)
	}
}

// TestCapacityPressure reproduces the paper's argument: with detection
// on, the appended-bit design halves the effective capacity for
// application translations, while the separate shadow TLB preserves it.
func TestCapacityPressure(t *testing.T) {
	cfg := DefaultConfig
	// Working set: exactly the regular TLB's capacity in pages.
	pages := cfg.Entries
	var trace []uint64
	for round := 0; round < 50; round++ {
		for p := 0; p < pages; p++ {
			trace = append(trace, uint64(p)<<uint(cfg.PageBits))
		}
	}
	app, sep, err := Compare(cfg, trace, shadowOf, true)
	if err != nil {
		t.Fatal(err)
	}
	if app.RegularMisses <= sep.RegularMisses {
		t.Fatalf("appended-bit should suffer capacity pressure: %d vs %d regular misses",
			app.RegularMisses, sep.RegularMisses)
	}
	if sep.RegularMisses > int64(pages)*2 {
		t.Fatalf("separate-TLB regular class should fit: %d misses", sep.RegularMisses)
	}
	if sep.Cycles >= app.Cycles {
		t.Fatalf("separate shadow TLB should be faster: %d vs %d cycles", sep.Cycles, app.Cycles)
	}
}

// TestParallelLookupLatency: the separate design pays max(hit,walk),
// the appended design pays the sum of both lookups.
func TestParallelLookupLatency(t *testing.T) {
	cfg := DefaultConfig
	a := mustNew(t, cfg, AppendedBit)
	s := mustNew(t, cfg, SeparateTLB)
	a.Translate(0x9000, shadowOf(0x9000), true)
	s.Translate(0x9000, shadowOf(0x9000), true)
	if a.Stats.Cycles != 2*cfg.MissLatency {
		t.Errorf("appended cold access = %d cycles, want %d", a.Stats.Cycles, 2*cfg.MissLatency)
	}
	if s.Stats.Cycles != cfg.MissLatency {
		t.Errorf("separate cold access = %d cycles, want %d", s.Stats.Cycles, cfg.MissLatency)
	}
}

func TestDetectionOffIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var trace []uint64
	for i := 0; i < 5000; i++ {
		trace = append(trace, uint64(rng.Intn(1<<20)))
	}
	app, sep, err := Compare(DefaultConfig, trace, shadowOf, false)
	if err != nil {
		t.Fatal(err)
	}
	if app.RegularMisses != sep.RegularMisses || app.Cycles != sep.Cycles {
		t.Fatalf("with detection off the designs must coincide: %+v vs %+v", app, sep)
	}
	if app.ShadowHits+app.ShadowMisses != 0 {
		t.Fatal("shadow translations counted with detection off")
	}
}

func TestMechanismString(t *testing.T) {
	if AppendedBit.String() != "appended-bit" || SeparateTLB.String() != "separate-shadow-tlb" {
		t.Fatal("mechanism names wrong")
	}
}

func BenchmarkTranslateSeparate(b *testing.B) {
	m := mustNew(b, DefaultConfig, SeparateTLB)
	for i := 0; i < b.N; i++ {
		a := uint64(i%4096) << 12
		m.Translate(a, shadowOf(a), true)
	}
}
