package tlb

import (
	"math/bits"
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

// refCache is the set-associative translation cache the models used
// before they were built on mem.Cache, kept as the reference the
// differential test holds them to.
type refCache struct {
	sets  [][]refEntry
	mask  uint64
	stamp uint64
}

type refEntry struct {
	tag   uint64
	valid bool
	lru   uint64
}

func newRefCache(entries, assoc int) *refCache {
	sets := entries / assoc
	c := &refCache{sets: make([][]refEntry, sets), mask: uint64(sets - 1)}
	for i := range c.sets {
		c.sets[i] = make([]refEntry, assoc)
	}
	return c
}

// access looks up a tag value and fills on a miss, reporting a hit.
func (c *refCache) access(tagVal uint64) bool {
	c.stamp++
	set := c.sets[tagVal&c.mask]
	tag := tagVal >> uint(bits.Len64(c.mask))
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.stamp
			return true
		}
	}
	victim := &set[0]
	for i := range set {
		if !set[i].valid {
			victim = &set[i]
			break
		}
		if set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	victim.valid = true
	victim.tag = tag
	victim.lru = c.stamp
	return false
}

// refTranslate is Model.Translate over reference caches.
func refTranslate(cfg Config, mech Mechanism, regular, shadow *refCache, st *Stats, addr, shadowAddr uint64, hasShadow bool) {
	lat := func(hit bool, hits, misses *int64) int64 {
		if hit {
			*hits++
			return cfg.HitLatency
		}
		*misses++
		return cfg.MissLatency
	}
	page, sp := addr>>uint(cfg.PageBits), shadowAddr>>uint(cfg.PageBits)
	l := lat(regular.access(page), &st.RegularHits, &st.RegularMisses)
	if mech == AppendedBit {
		st.Cycles += l
		if hasShadow {
			st.Cycles += lat(regular.access(sp|shadowClassBit), &st.ShadowHits, &st.ShadowMisses)
		}
		return
	}
	if hasShadow {
		l = max(l, lat(shadow.access(sp), &st.ShadowHits, &st.ShadowMisses))
	}
	st.Cycles += l
}

// TestModelsMatchReferenceCache drives both mechanisms and the
// reference over seeded random page traces, with shadow translations
// never, always and on a random half of the accesses, and requires
// equal Stats after every access: the mem.Cache geometry reproduces
// the reference's set index, tag, LRU stamps and victim choice.
func TestModelsMatchReferenceCache(t *testing.T) {
	configs := []Config{
		DefaultConfig,
		{PageBits: 12, Entries: 8, Assoc: 1, ShadowEntries: 4, ShadowAssoc: 4, HitLatency: 1, MissLatency: 50},
		{PageBits: 16, Entries: 32, Assoc: 8, ShadowEntries: 8, ShadowAssoc: 2, HitLatency: 3, MissLatency: 300},
	}
	for ci, cfg := range configs {
		for _, mech := range []Mechanism{AppendedBit, SeparateTLB} {
			for seed := int64(1); seed <= 4; seed++ {
				for mode, shadowed := range []func(*rand.Rand) bool{
					func(*rand.Rand) bool { return false },
					func(*rand.Rand) bool { return true },
					func(r *rand.Rand) bool { return r.Intn(2) == 0 },
				} {
					m := mustNew(t, cfg, mech)
					regular := newRefCache(cfg.Entries, cfg.Assoc)
					shadow := newRefCache(cfg.ShadowEntries, cfg.ShadowAssoc)
					var want Stats
					rng := rand.New(rand.NewSource(seed))
					// Pages drawn from four times the regular TLB's
					// reach, so lookups hit, miss and evict.
					span := 4 * cfg.Entries << uint(cfg.PageBits)
					for i := 0; i < 2000; i++ {
						addr := uint64(rng.Intn(span))
						sh, has := shadowOf(addr), shadowed(rng)
						m.Translate(addr, sh, has)
						refTranslate(cfg, mech, regular, shadow, &want, addr, sh, has)
						if m.Stats != want {
							t.Fatalf("config %d %v seed %d mode %d access %d: stats %+v, reference %+v",
								ci, mech, seed, mode, i, m.Stats, want)
						}
					}
				}
			}
		}
	}
}
