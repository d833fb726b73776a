package mem

import (
	"testing"
	"testing/quick"
)

// Probe reports whether addr is present without touching LRU or
// stats: the cache tests' oracle for what a line holds.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

func TestMemoryLoadStoreRoundTrip(t *testing.T) {
	m := NewMemory("t", 1024)
	for _, size := range []int{1, 2, 4, 8} {
		mask := ^uint64(0)
		if size < 8 {
			mask = 1<<(8*size) - 1
		}
		f := func(off uint16, v uint64) bool {
			addr := uint64(off) % uint64(1024-size)
			if err := m.Store(addr, size, v); err != nil {
				return false
			}
			got, err := m.Load(addr, size)
			return err == nil && got == v&mask
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("size %d: %v", size, err)
		}
	}
}

func TestMemoryBounds(t *testing.T) {
	m := NewMemory("t", 64)
	if _, err := m.Load(64, 1); err == nil {
		t.Error("load at size boundary succeeded")
	}
	if _, err := m.Load(61, 4); err == nil {
		t.Error("straddling load succeeded")
	}
	if err := m.Store(^uint64(0), 4, 1); err == nil {
		t.Error("overflowing store succeeded")
	}
	if err := m.Store(60, 4, 1); err != nil {
		t.Errorf("last-word store failed: %v", err)
	}
	if _, err := m.Load(0, 3); err == nil {
		t.Error("3-byte load succeeded")
	}
}

func TestMemoryLittleEndian(t *testing.T) {
	m := NewMemory("t", 8)
	if err := m.Store(0, 4, 0x0a0b0c0d); err != nil {
		t.Fatal(err)
	}
	if b := m.Bytes()[0]; b != 0x0d {
		t.Errorf("byte 0 = %#x, want 0x0d", b)
	}
	lo, _ := m.Load(0, 1)
	if lo != 0x0d {
		t.Errorf("Load(0,1) = %#x, want 0x0d", lo)
	}
}

func TestMemoryF32(t *testing.T) {
	m := NewMemory("t", 16)
	if err := m.StoreF32(4, 3.5); err != nil {
		t.Fatal(err)
	}
	got, err := m.LoadF32(4)
	if err != nil || got != 3.5 {
		t.Errorf("LoadF32 = %v, %v; want 3.5", got, err)
	}
	m.SetF32(2, -1.25)
	if m.F32(2) != -1.25 {
		t.Errorf("F32 helper round trip failed: %v", m.F32(2))
	}
}

func TestCacheBasicHitMiss(t *testing.T) {
	c := MustNewCache(CacheConfig{Name: "L1", SizeBytes: 1024, Assoc: 2, LineBytes: 64})
	if r := c.Access(0, false, 0); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(32, false, 0); !r.Hit {
		t.Error("same-line access missed")
	}
	if r := c.Access(64, false, 0); r.Hit {
		t.Error("next-line access hit")
	}
	if c.Stats.ReadHits != 1 || c.Stats.ReadMisses != 2 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 sets x 2 ways x 64B lines = 256B.
	c := MustNewCache(CacheConfig{Name: "L1", SizeBytes: 256, Assoc: 2, LineBytes: 64})
	// Set 0 holds lines at 0, 128, 256, ... Fill both ways, touch the
	// first, then force an eviction: the second should be the victim.
	c.Access(0, false, 0)
	c.Access(128, false, 0)
	c.Access(0, false, 0)   // refresh line 0
	c.Access(256, false, 0) // evicts 128
	if !c.Probe(0) {
		t.Error("line 0 was evicted despite being MRU")
	}
	if c.Probe(128) {
		t.Error("line 128 survived; LRU should have evicted it")
	}
	if !c.Probe(256) {
		t.Error("line 256 not present after fill")
	}
}

func TestCacheWriteThroughNoAllocate(t *testing.T) {
	c := MustNewCache(CacheConfig{Name: "L1", SizeBytes: 256, Assoc: 2, LineBytes: 64})
	r := c.Access(0, true, 0)
	if r.Hit || r.Fill {
		t.Errorf("write-through write miss should not allocate: %+v", r)
	}
	if c.Probe(0) {
		t.Error("no-allocate cache contains written line")
	}
	// But a write to a resident line updates LRU and counts as a hit.
	c.Access(0, false, 0)
	if r := c.Access(0, true, 0); !r.Hit {
		t.Error("write to resident line missed")
	}
}

func TestCacheWriteBackDirtyEviction(t *testing.T) {
	c := MustNewCache(CacheConfig{Name: "L2", SizeBytes: 128, Assoc: 1, LineBytes: 64, WriteBack: true})
	c.Access(0, true, 0) // set 0, dirty
	r := c.Access(128, false, 0)
	if !r.Writeback || r.WritebackAddr != 0 {
		t.Errorf("dirty eviction = %+v, want writeback of line 0", r)
	}
	c.Access(256, false, 0) // clean eviction of 128
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
}

func TestCacheInvalidateAndFlush(t *testing.T) {
	c := MustNewCache(CacheConfig{Name: "L1", SizeBytes: 256, Assoc: 2, LineBytes: 64})
	c.Access(0, false, 0)
	if !c.Invalidate(0) {
		t.Error("Invalidate missed resident line")
	}
	if c.Probe(0) {
		t.Error("line survives invalidation")
	}
	c.Access(0, false, 0)
	c.Access(64, false, 0)
	c.Flush()
	if c.Probe(0) || c.Probe(64) {
		t.Error("lines survive Flush")
	}
}

func TestCacheConfigValidate(t *testing.T) {
	bad := []CacheConfig{
		{Name: "x", SizeBytes: 0, Assoc: 1, LineBytes: 64},
		{Name: "x", SizeBytes: 100, Assoc: 1, LineBytes: 60},
		{Name: "x", SizeBytes: 192, Assoc: 1, LineBytes: 64}, // 3 sets
		{Name: "x", SizeBytes: 128, Assoc: 3, LineBytes: 64},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
	}
}

func TestDRAMReservation(t *testing.T) {
	d := NewDRAM(DRAMConfig{CASLatency: 100, BurstCycles: 4, RowBits: 11, RowHitSave: 60})
	t1 := d.Service(0, 0, false)
	if t1 != 100 {
		t.Errorf("first access done at %d, want 100", t1)
	}
	// Same row: row hit saves 60 cycles, but bus reservation delays start to 4.
	t2 := d.Service(0, 64, false)
	if t2 != 4+40 {
		t.Errorf("row-hit access done at %d, want 44", t2)
	}
	// Different row: full CAS, starts when bus frees at 8.
	t3 := d.Service(0, 1<<20, false)
	if t3 != 8+100 {
		t.Errorf("row-miss access done at %d, want 108", t3)
	}
	if d.BusyCycles != 12 {
		t.Errorf("busy cycles = %d, want 12", d.BusyCycles)
	}
	if u := d.Utilization(120); u != 0.1 {
		t.Errorf("utilization = %v, want 0.1", u)
	}
}

func TestDRAMUtilizationClamped(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig)
	for i := 0; i < 100; i++ {
		d.Service(0, uint64(i)*128, true)
	}
	if u := d.Utilization(10); u != 1 {
		t.Errorf("utilization = %v, want clamped to 1", u)
	}
	if d.Writes != 100 {
		t.Errorf("writes = %d", d.Writes)
	}
	d.ResetStats()
	if d.BusyCycles != 0 || d.Writes != 0 {
		t.Error("ResetStats left counters")
	}
}

func TestSharedConflicts(t *testing.T) {
	s := NewShared(SharedConfig{SizeBytes: 16 << 10, Banks: 16, BankWidth: 4})
	// 16 lanes hitting 16 different banks: conflict-free.
	var addrs []uint64
	for i := 0; i < 16; i++ {
		addrs = append(addrs, uint64(i*4))
	}
	if c := s.ConflictCyclesFor(addrs); c != 1 {
		t.Errorf("stride-4 access = %d cycles, want 1", c)
	}
	// All lanes hitting bank 0, different words: fully serialized.
	addrs = addrs[:0]
	for i := 0; i < 8; i++ {
		addrs = append(addrs, uint64(i*16*4))
	}
	if c := s.ConflictCyclesFor(addrs); c != 8 {
		t.Errorf("same-bank access = %d cycles, want 8", c)
	}
	// All lanes reading the same word: broadcast, 1 cycle.
	addrs = addrs[:0]
	for i := 0; i < 32; i++ {
		addrs = append(addrs, 128)
	}
	if c := s.ConflictCyclesFor(addrs); c != 1 {
		t.Errorf("broadcast access = %d cycles, want 1", c)
	}
	if s.ConflictCycles != 7 {
		t.Errorf("accumulated conflict cycles = %d, want 7", s.ConflictCycles)
	}
}

func TestCoalesce(t *testing.T) {
	// Fully coalesced: 32 consecutive words in one 128B segment.
	var addrs []uint64
	for i := 0; i < 32; i++ {
		addrs = append(addrs, uint64(i*4))
	}
	if got := Coalesce(nil, addrs, 4, 128); len(got) != 1 || got[0] != 0 {
		t.Errorf("coalesced = %v, want [0]", got)
	}
	// Strided by 128: one transaction per lane.
	addrs = addrs[:0]
	for i := 0; i < 8; i++ {
		addrs = append(addrs, uint64(i*128))
	}
	if got := Coalesce(nil, addrs, 4, 128); len(got) != 8 {
		t.Errorf("strided coalesce produced %d segments, want 8", len(got))
	}
	// Straddling access spans two segments.
	if got := Coalesce(nil, []uint64{126}, 4, 128); len(got) != 2 {
		t.Errorf("straddling access = %v, want 2 segments", got)
	}
	if Coalesce(nil, nil, 4, 128) != nil {
		t.Error("empty input should coalesce to nil")
	}
}

func TestCoalesceDeterministic(t *testing.T) {
	addrs := []uint64{512, 0, 512, 128, 0}
	got := Coalesce(nil, addrs, 4, 128)
	want := []uint64{512, 0, 128}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v (first-touch order)", got, want)
		}
	}
}

// TestCoalesceAppends: Coalesce appends after dst's contents, which it
// leaves alone and does not deduplicate against, and with enough
// capacity in dst it allocates nothing.
func TestCoalesceAppends(t *testing.T) {
	dst := append(make([]uint64, 0, 64), 7, 0)
	got := Coalesce(dst, []uint64{0, 126, 4}, 4, 128)
	want := []uint64{7, 0, 0, 128}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = uint64(i * 132) // straddles, repeats and spreads
	}
	if n := testing.AllocsPerRun(100, func() { dst = Coalesce(dst[:0], addrs, 8, 128) }); n != 0 {
		t.Errorf("Coalesce into a 64-entry buffer: %v allocs, want 0", n)
	}
}

func TestPartitionTiming(t *testing.T) {
	cfg := PartitionConfig{
		L2:            CacheConfig{Name: "L2", SizeBytes: 8 << 10, Assoc: 8, LineBytes: 128, WriteBack: true},
		DRAM:          DRAMConfig{CASLatency: 100, BurstCycles: 4, RowBits: 11, RowHitSave: 60},
		L2Latency:     20,
		AtomicLatency: 8,
	}
	p, err := NewPartition(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cold read: L2 miss -> DRAM.
	done := p.Access(0, 0, false, false, false)
	if done != 0+20+100 {
		t.Errorf("cold read done at %d, want 120", done)
	}
	// Re-read same line: L2 hit.
	done = p.Access(200, 0, false, false, false)
	if done != 220 {
		t.Errorf("warm read done at %d, want 220", done)
	}
	// Atomic to resident line: hit + atomic latency, and serializes the port.
	done = p.Access(300, 0, false, true, false)
	if done != 300+20+8 {
		t.Errorf("atomic done at %d, want 328", done)
	}
	next := p.Access(301, 0, false, false, false)
	if next < 328+20 {
		t.Errorf("post-atomic access done at %d, want >= 348 (serialized)", next)
	}
	if p.Atomics != 1 || p.Transactions != 4 {
		t.Errorf("stats: %+v", *p)
	}
}

func TestPartitionShadowAccounting(t *testing.T) {
	cfg := PartitionConfig{
		L2:        CacheConfig{Name: "L2", SizeBytes: 8 << 10, Assoc: 8, LineBytes: 128, WriteBack: true},
		DRAM:      DefaultDRAMConfig,
		L2Latency: 20,
	}
	p, _ := NewPartition(1, cfg)
	p.Access(0, 4096, false, false, true)
	if p.ShadowAccess != 1 {
		t.Errorf("shadow accesses = %d, want 1", p.ShadowAccess)
	}
	p.ResetStats()
	if p.ShadowAccess != 0 || p.L2.Stats.Accesses() != 0 {
		t.Error("ResetStats left counters")
	}
}

func TestPartitionPortContention(t *testing.T) {
	cfg := PartitionConfig{
		L2:        CacheConfig{Name: "L2", SizeBytes: 64 << 10, Assoc: 8, LineBytes: 128, WriteBack: true},
		DRAM:      DRAMConfig{CASLatency: 10, BurstCycles: 4, RowBits: 11, RowHitSave: 0},
		L2Latency: 5,
	}
	p, _ := NewPartition(0, cfg)
	p.Access(0, 0, false, false, false) // warm the line
	// Two hits arriving the same cycle serialize through the port.
	a := p.Access(100, 0, false, false, false)
	b := p.Access(100, 0, false, false, false)
	if b != a+1 {
		t.Errorf("port contention: %d then %d, want 1 cycle apart", a, b)
	}
}
