package mem

import "slices"

// SharedConfig describes the banked per-SM shared memory (scratchpad).
type SharedConfig struct {
	SizeBytes int // per SM; the paper models 16KB (GT200)
	Banks     int // 16 on GT200
	BankWidth int // bytes served per bank per cycle (4)
}

// DefaultSharedConfig matches the paper's Quadro FX5800 configuration.
var DefaultSharedConfig = SharedConfig{SizeBytes: 16 << 10, Banks: 16, BankWidth: 4}

// Shared is one SM's shared memory: a flat tile plus the bank-conflict
// model. Blocks resident on the same SM receive disjoint static
// partitions of the tile, handled by the execution engine.
type Shared struct {
	cfg SharedConfig
	Mem *Memory

	// Stats.
	Accesses       int64
	ConflictCycles int64

	// ConflictCyclesFor's scratch, reused across calls: the distinct
	// words of the current access and how many of them map to each
	// bank (all zero between calls).
	words   []uint64
	perBank []int64
}

// NewShared builds a shared-memory tile with no bytes backed yet;
// Cover backs the ones its blocks use.
func NewShared(cfg SharedConfig) *Shared {
	return &Shared{cfg: cfg, Mem: NewMemory("shared", 0), perBank: make([]int64, cfg.Banks)}
}

// Cover backs the tile's first n bytes, capped at its size. Bytes it
// adds read zero.
func (s *Shared) Cover(n int) {
	n = min(n, s.cfg.SizeBytes)
	if old := s.Mem.data; n > len(old) {
		s.Mem.data = make([]byte, n)
		copy(s.Mem.data, old)
	}
}

// ConflictCyclesFor computes how many cycles a warp's shared-memory
// access occupies: the maximum number of distinct words mapped to any
// single bank (accesses to the same word broadcast and count once).
// addrs lists the byte addresses of active lanes only. A word maps to
// one bank, so distinct words are found by a linear scan of the words
// seen so far; once its scratch has grown to a warp's width the call
// allocates nothing.
func (s *Shared) ConflictCyclesFor(addrs []uint64) int64 {
	if len(addrs) == 0 {
		return 0
	}
	width, banks := uint64(s.cfg.BankWidth), uint64(s.cfg.Banks)
	var maxC int64 = 1
	words := s.words[:0]
	for _, a := range addrs {
		word := a / width
		if slices.Contains(words, word) {
			continue // broadcast
		}
		words = append(words, word)
		bank := word % banks
		s.perBank[bank]++
		maxC = max(maxC, s.perBank[bank])
	}
	for _, w := range words {
		s.perBank[w%banks] = 0
	}
	s.words = words
	s.Accesses++
	s.ConflictCycles += maxC - 1
	return maxC
}

// Clear zeroes the tile (block launch semantics).
func (s *Shared) Clear(base, size int) {
	b := s.Mem.Bytes()
	for i := base; i < base+size && i < len(b); i++ {
		b[i] = 0
	}
}
