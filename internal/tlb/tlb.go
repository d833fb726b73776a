// Package tlb models the virtual-memory support HAccRG proposes in
// Section IV-B. GPUs with virtual memory translate every global access
// through a TLB; HAccRG additionally needs translations for the shadow
// pages its RDUs touch, which are allocated on demand alongside the
// application's global pages. The paper proposes two mechanisms:
//
//  1. Appended tag bit: the regular GPU TLB's tags grow by one bit
//     distinguishing shadow from application translations. Both
//     classes compete for the same entries, so the effective capacity
//     seen by the application shrinks.
//  2. Separate shadow TLB: a second, smaller TLB dedicated to shadow
//     pages, probed in parallel with the regular one. Faster, and the
//     shadow TLB can be small because only global-space pages have
//     shadow pages.
//
// This package implements both as evaluable models over address
// traces, so the trade-off the paper argues qualitatively can be
// measured (see the harness's TLB study and the ablation benchmarks).
package tlb

import (
	"fmt"

	"haccrg/internal/mem"
)

// Mechanism selects one of the paper's two shadow-translation designs.
type Mechanism uint8

// The two proposed mechanisms.
const (
	// AppendedBit: one shared TLB; shadow entries carry a tag bit.
	AppendedBit Mechanism = iota
	// SeparateTLB: a dedicated (smaller) shadow TLB beside the regular one.
	SeparateTLB
)

func (m Mechanism) String() string {
	switch m {
	case AppendedBit:
		return "appended-bit"
	case SeparateTLB:
		return "separate-shadow-tlb"
	}
	return "mechanism?"
}

// Config describes the translation hardware.
type Config struct {
	PageBits int // log2 page size (12 = 4KB)

	Entries int // regular TLB entries
	Assoc   int // regular TLB associativity

	// ShadowEntries/ShadowAssoc size the dedicated shadow TLB
	// (SeparateTLB mechanism only).
	ShadowEntries int
	ShadowAssoc   int

	HitLatency  int64 // translation hit cycles
	MissLatency int64 // page-walk cycles
}

// DefaultConfig models a GPU TLB of the Sandy-Bridge/Fusion era the
// paper cites: 64-entry 4-way regular TLB, 16-entry 4-way shadow TLB,
// 4KB pages.
var DefaultConfig = Config{
	PageBits:      12,
	Entries:       64,
	Assoc:         4,
	ShadowEntries: 16,
	ShadowAssoc:   4,
	HitLatency:    2,
	MissLatency:   200,
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.PageBits < 6 || c.PageBits > 30 {
		return fmt.Errorf("tlb: page bits %d out of range", c.PageBits)
	}
	for _, cc := range c.caches() {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// caches returns the regular and the shadow TLB as mem.Cache
// geometries. A TLB is a cache of one-byte lines indexed by page
// number: its entries are the lines, the low page-number bits pick the
// set, and the rest (with the appended class bit) are the tag. A
// lookup is a read access, which fills on a miss.
func (c Config) caches() [2]mem.CacheConfig {
	return [2]mem.CacheConfig{
		{Name: "regular TLB", SizeBytes: c.Entries, Assoc: c.Assoc, LineBytes: 1},
		{Name: "shadow TLB", SizeBytes: c.ShadowEntries, Assoc: c.ShadowAssoc, LineBytes: 1},
	}
}

// shadowClassBit marks shadow-page translations in the appended-bit
// design; it lands in the tag portion of the lookup value.
const shadowClassBit = uint64(1) << 62

// Stats aggregates translation outcomes.
type Stats struct {
	RegularHits   int64
	RegularMisses int64
	ShadowHits    int64
	ShadowMisses  int64
	Cycles        int64 // total translation cycles
}

// MissRate returns the overall translation miss rate.
func (s Stats) MissRate() float64 {
	total := s.RegularHits + s.RegularMisses + s.ShadowHits + s.ShadowMisses
	if total == 0 {
		return 0
	}
	return float64(s.RegularMisses+s.ShadowMisses) / float64(total)
}

// Model is one translation design under evaluation.
type Model struct {
	cfg  Config
	mech Mechanism

	regular *mem.Cache
	shadow  *mem.Cache // nil for AppendedBit

	Stats Stats
}

// New builds a model of the given mechanism.
func New(cfg Config, mech Mechanism) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geom := cfg.caches()
	m := &Model{cfg: cfg, mech: mech, regular: mem.MustNewCache(geom[0])}
	if mech == SeparateTLB {
		m.shadow = mem.MustNewCache(geom[1])
	}
	return m, nil
}

// Translate processes one access: the application address plus its
// shadow address (both need translations when detection is on; pass
// shadow = 0 and hasShadow = false for detection-off accesses).
func (m *Model) Translate(addr uint64, shadowAddr uint64, hasShadow bool) {
	page := addr >> uint(m.cfg.PageBits)
	switch m.mech {
	case AppendedBit:
		// The class bit extends the TAG (set indexing is unchanged, as
		// in the paper's "appends 1-bit to the tag fields" design).
		if m.regular.Access(page, false, 0).Hit {
			m.Stats.RegularHits++
			m.Stats.Cycles += m.cfg.HitLatency
		} else {
			m.Stats.RegularMisses++
			m.Stats.Cycles += m.cfg.MissLatency
		}
		if hasShadow {
			// Tag bit 1: shadow translation, competing for the same
			// entries (and, since both classes are probed with
			// distinct tags, consuming lookup bandwidth serially).
			sp := shadowAddr >> uint(m.cfg.PageBits)
			if m.regular.Access(sp|shadowClassBit, false, 0).Hit {
				m.Stats.ShadowHits++
				m.Stats.Cycles += m.cfg.HitLatency
			} else {
				m.Stats.ShadowMisses++
				m.Stats.Cycles += m.cfg.MissLatency
			}
		}
	case SeparateTLB:
		// Both structures probe in parallel: the access pays the worse
		// of the two outcomes rather than their sum.
		var lat int64
		if m.regular.Access(page, false, 0).Hit {
			m.Stats.RegularHits++
			lat = m.cfg.HitLatency
		} else {
			m.Stats.RegularMisses++
			lat = m.cfg.MissLatency
		}
		if hasShadow {
			sp := shadowAddr >> uint(m.cfg.PageBits)
			var slat int64
			if m.shadow.Access(sp, false, 0).Hit {
				m.Stats.ShadowHits++
				slat = m.cfg.HitLatency
			} else {
				m.Stats.ShadowMisses++
				slat = m.cfg.MissLatency
			}
			if slat > lat {
				lat = slat
			}
		}
		m.Stats.Cycles += lat
	}
}

// Compare evaluates both mechanisms over the same address trace.
// shadowOf maps an application address to its shadow address.
func Compare(cfg Config, trace []uint64, shadowOf func(uint64) uint64, detectOn bool) (appended, separate Stats, err error) {
	a, err := New(cfg, AppendedBit)
	if err != nil {
		return
	}
	s, err := New(cfg, SeparateTLB)
	if err != nil {
		return
	}
	for _, addr := range trace {
		var sh uint64
		if detectOn {
			sh = shadowOf(addr)
		}
		a.Translate(addr, sh, detectOn)
		s.Translate(addr, sh, detectOn)
	}
	return a.Stats, s.Stats, nil
}
