package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: a line just accessed is always resident afterwards (reads
// and write-back writes allocate; write-through writes to a resident
// line keep it).
func TestPropertyCacheReadsAllocate(t *testing.T) {
	c := MustNewCache(CacheConfig{Name: "p", SizeBytes: 4096, Assoc: 4, LineBytes: 64})
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			addr := uint64(a)
			c.Access(addr, false, 0)
			if !c.Probe(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the cache never holds more distinct lines than its
// capacity, under any access mix.
func TestPropertyCacheCapacityBound(t *testing.T) {
	cfg := CacheConfig{Name: "p", SizeBytes: 1024, Assoc: 2, LineBytes: 64, WriteBack: true}
	capacity := cfg.SizeBytes / cfg.LineBytes
	rng := rand.New(rand.NewSource(3))
	c := MustNewCache(cfg)
	touched := map[uint64]struct{}{}
	for i := 0; i < 5000; i++ {
		addr := uint64(rng.Intn(1 << 16))
		c.Access(addr, rng.Intn(2) == 0, int64(i))
		touched[addr&^63] = struct{}{}
	}
	resident := 0
	for line := range touched {
		if c.Probe(line) {
			resident++
		}
	}
	if resident > capacity {
		t.Fatalf("cache holds %d lines, capacity %d", resident, capacity)
	}
}

// Property: hit + miss counters account for every access.
func TestPropertyCacheStatsBalance(t *testing.T) {
	c := MustNewCache(CacheConfig{Name: "p", SizeBytes: 2048, Assoc: 2, LineBytes: 128})
	rng := rand.New(rand.NewSource(4))
	const n = 3000
	for i := 0; i < n; i++ {
		c.Access(uint64(rng.Intn(1<<14)), rng.Intn(3) == 0, int64(i))
	}
	if c.Stats.Accesses() != n {
		t.Fatalf("stats account for %d of %d accesses", c.Stats.Accesses(), n)
	}
}

// Property: coalescing covers every accessed byte and never produces
// more segments than 2x the lane count (each access can straddle at
// most one boundary).
func TestPropertyCoalesceCovers(t *testing.T) {
	f := func(raw []uint16, sizeSel uint8) bool {
		size := []int{1, 2, 4, 8}[sizeSel%4]
		var addrs []uint64
		for _, r := range raw {
			addrs = append(addrs, uint64(r))
		}
		segs := Coalesce(nil, addrs, size, 128)
		if len(segs) > 2*len(addrs) {
			return false
		}
		in := func(a uint64) bool {
			for _, s := range segs {
				if a >= s && a < s+128 {
					return true
				}
			}
			return false
		}
		for _, a := range addrs {
			if !in(a) || !in(a+uint64(size)-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: segments are unique and aligned.
func TestPropertyCoalesceAlignedUnique(t *testing.T) {
	f := func(raw []uint16) bool {
		var addrs []uint64
		for _, r := range raw {
			addrs = append(addrs, uint64(r))
		}
		segs := Coalesce(nil, addrs, 4, 128)
		seen := map[uint64]bool{}
		for _, s := range segs {
			if s%128 != 0 || seen[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: DRAM completion times never precede arrival, and the bus
// never serves two bursts concurrently (busy cycles <= span of use).
func TestPropertyDRAMMonotonicBus(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig)
	rng := rand.New(rand.NewSource(5))
	var arrival int64
	var lastDone int64
	for i := 0; i < 2000; i++ {
		arrival += int64(rng.Intn(20))
		done := d.Service(arrival, uint64(rng.Intn(1<<22)), rng.Intn(2) == 0)
		if done < arrival {
			t.Fatalf("completion %d before arrival %d", done, arrival)
		}
		if done > lastDone {
			lastDone = done
		}
	}
	if d.BusyCycles > lastDone {
		t.Fatalf("bus busy %d cycles in a %d-cycle span", d.BusyCycles, lastDone)
	}
}

// Property: shared-memory conflict cycles are between 1 and the number
// of active lanes.
func TestPropertySharedConflictBounds(t *testing.T) {
	s := NewShared(DefaultSharedConfig)
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var addrs []uint64
		for _, r := range raw {
			addrs = append(addrs, uint64(r)%16384)
		}
		c := s.ConflictCyclesFor(addrs)
		return c >= 1 && c <= int64(len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the bank-conflict count equals a map-based reference
// (distinct (bank, word) pairs per bank, at least one cycle) on access
// after access through one Shared, so its reused scratch carries
// nothing between calls; and a steady-state call allocates nothing.
func TestPropertySharedConflictsMatchReference(t *testing.T) {
	for _, cfg := range []SharedConfig{DefaultSharedConfig, {SizeBytes: 16 << 10, Banks: 32, BankWidth: 8}} {
		s := NewShared(cfg)
		ref := func(addrs []uint64) int64 {
			seen := map[uint64]bool{}
			perBank := map[uint64]int64{}
			var maxC int64 = 1
			for _, a := range addrs {
				word := a / uint64(cfg.BankWidth)
				if seen[word] {
					continue
				}
				seen[word] = true
				bank := word % uint64(cfg.Banks)
				perBank[bank]++
				maxC = max(maxC, perBank[bank])
			}
			return maxC
		}
		var wantTotal int64
		f := func(raw []uint16, stride uint8) bool {
			if len(raw) == 0 {
				return true
			}
			addrs := make([]uint64, len(raw))
			for i, r := range raw {
				// Mix random words with a strided run so both conflict-free
				// and fully serialized patterns occur.
				addrs[i] = (uint64(r) + uint64(i)*uint64(stride)) % 16384
			}
			want := ref(addrs)
			wantTotal += want - 1
			return s.ConflictCyclesFor(addrs) == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Error(err)
		}
		if s.ConflictCycles != wantTotal {
			t.Errorf("accumulated conflict cycles %d, want %d", s.ConflictCycles, wantTotal)
		}
		addrs := make([]uint64, 32)
		for i := range addrs {
			addrs[i] = uint64(i*36) % 512
		}
		if n := testing.AllocsPerRun(100, func() { s.ConflictCyclesFor(addrs) }); n != 0 {
			t.Errorf("ConflictCyclesFor: %v allocs per call, want 0", n)
		}
	}
}

// Property: memory round trips preserve values across random sizes and
// alignments without corrupting neighbours.
func TestPropertyMemoryNeighboursUntouched(t *testing.T) {
	m := NewMemory("p", 256)
	f := func(off uint8, v uint32) bool {
		addr := uint64(off) % 248
		// Paint sentinels around the target word.
		for i := uint64(0); i < 256; i++ {
			m.Bytes()[i] = 0xAB
		}
		if err := m.Store(addr, 4, uint64(v)); err != nil {
			return false
		}
		got, err := m.Load(addr, 4)
		if err != nil || uint32(got) != v {
			return false
		}
		for i := uint64(0); i < 256; i++ {
			if i >= addr && i < addr+4 {
				continue
			}
			if m.Bytes()[i] != 0xAB {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
