package mem

import "fmt"

// CacheConfig describes a set-associative cache.
type CacheConfig struct {
	Name      string
	SizeBytes int
	Assoc     int
	LineBytes int
	// WriteBack selects write-back/write-allocate; otherwise the cache
	// is write-through/no-allocate (GPU L1 policy for global data,
	// which is why global stores always reach L2 — the property the
	// paper's shadow-memory design relies on).
	WriteBack bool
}

// Validate checks the configuration for consistency.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("mem: cache %q: non-positive geometry", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("mem: cache %q: size %d not a multiple of line size %d", c.Name, c.SizeBytes, c.LineBytes)
	}
	if lines%c.Assoc != 0 {
		return fmt.Errorf("mem: cache %q: %d lines not divisible by associativity %d", c.Name, lines, c.Assoc)
	}
	sets := lines / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: cache %q: %d sets not a power of two", c.Name, sets)
	}
	return nil
}

// CacheStats aggregates hit/miss counters.
type CacheStats struct {
	ReadHits    int64
	ReadMisses  int64
	WriteHits   int64
	WriteMisses int64
	Evictions   int64
	Writebacks  int64
}

// Accesses returns the total number of accesses observed.
func (s CacheStats) Accesses() int64 {
	return s.ReadHits + s.ReadMisses + s.WriteHits + s.WriteMisses
}

// HitRate returns the fraction of accesses that hit, or 0 for none.
func (s CacheStats) HitRate() float64 {
	t := s.Accesses()
	if t == 0 {
		return 0
	}
	return float64(s.ReadHits+s.WriteHits) / float64(t)
}

type cacheLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // last-touch stamp
	fill  int64  // cycle the line's data was last refreshed
}

// Cache is a set-associative tag store with LRU replacement. It tracks
// hit/miss state only; data always lives in the flat Memory (the
// simulator executes functionally at issue).
type Cache struct {
	cfg   CacheConfig
	sets  [][]cacheLine
	stamp uint64
	Stats CacheStats

	lineShift uint
	setMask   uint64
}

// NewCache builds a cache; the configuration must validate.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / cfg.LineBytes / cfg.Assoc
	c := &Cache{cfg: cfg, sets: make([][]cacheLine, sets)}
	for i := range c.sets {
		c.sets[i] = make([]cacheLine, cfg.Assoc)
	}
	for ls := cfg.LineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	c.setMask = uint64(sets - 1)
	return c, nil
}

// MustNewCache is NewCache panicking on invalid configuration (for
// static device construction).
func MustNewCache(cfg CacheConfig) *Cache {
	c, err := NewCache(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

func (c *Cache) locate(addr uint64) (set []cacheLine, tag uint64) {
	line := addr >> c.lineShift
	return c.sets[line&c.setMask], line >> uint64(len64(c.setMask))
}

func len64(mask uint64) int {
	n := 0
	for mask != 0 {
		mask >>= 1
		n++
	}
	return n
}

// AccessResult describes the outcome of a cache access.
type AccessResult struct {
	Hit           bool
	Writeback     bool   // an evicted dirty line must be written downstream
	WritebackAddr uint64 // line address of the writeback victim
	Fill          bool   // the access allocates (miss fill)
}

// Access performs a read or write lookup at the given cycle, updating
// LRU, tag and fill-time state.
//
// Read miss: allocates (fills) the line. Write: on write-back caches,
// allocates and marks dirty; on write-through caches, updates the line
// if present (no allocate) — the write itself always proceeds
// downstream, which the caller models. The fill time records when the
// line's data was last made current; write hits refresh it (the write
// updates the cached copy in place).
func (c *Cache) Access(addr uint64, write bool, cycle int64) AccessResult {
	c.stamp++
	set, tag := c.locate(addr)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			l.lru = c.stamp
			if write {
				c.Stats.WriteHits++
				l.fill = cycle
				if c.cfg.WriteBack {
					l.dirty = true
				}
			} else {
				c.Stats.ReadHits++
			}
			return AccessResult{Hit: true}
		}
	}
	// Miss.
	if write {
		c.Stats.WriteMisses++
		if !c.cfg.WriteBack {
			return AccessResult{} // no-allocate
		}
	} else {
		c.Stats.ReadMisses++
	}
	res := AccessResult{Fill: true}
	victim := &set[0]
	for i := range set {
		l := &set[i]
		if !l.valid {
			victim = l
			break
		}
		if l.lru < victim.lru {
			victim = l
		}
	}
	if victim.valid {
		c.Stats.Evictions++
		if victim.dirty {
			c.Stats.Writebacks++
			res.Writeback = true
			res.WritebackAddr = c.reconstruct(victim.tag, addr)
		}
	}
	victim.valid = true
	victim.tag = tag
	victim.dirty = write && c.cfg.WriteBack
	victim.lru = c.stamp
	victim.fill = cycle
	return res
}

// FillStamp returns the cycle at which a resident line's data was last
// refreshed; ok is false when the line is absent. The stale-read
// detection of Section IV-B compares this against the shadow entry's
// write time.
func (c *Cache) FillStamp(addr uint64) (int64, bool) {
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return set[i].fill, true
		}
	}
	return 0, false
}

// reconstruct rebuilds a victim's line address from its tag and the
// set index of the incoming address (same set by construction).
func (c *Cache) reconstruct(tag, incoming uint64) uint64 {
	setIdx := (incoming >> c.lineShift) & c.setMask
	return (tag<<uint64(len64(c.setMask))|setIdx)<<c.lineShift | 0
}

// Probe reports whether addr is present without touching LRU or stats.
// The global-memory RDU uses this to learn whether a read was an L1
// hit (stale-data race detection, Section IV-B).
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Invalidate drops a line if present (no writeback), returning whether
// it was present.
func (c *Cache) Invalidate(addr uint64) bool {
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].valid = false
			set[i].dirty = false
			return true
		}
	}
	return false
}

// Flush invalidates the entire cache (kernel boundary semantics for
// non-coherent L1s).
func (c *Cache) Flush() {
	for s := range c.sets {
		for i := range c.sets[s] {
			c.sets[s][i] = cacheLine{}
		}
	}
}
