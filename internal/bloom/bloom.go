// Package bloom implements the Bloom-filter signatures HAccRG uses as
// per-thread "atomic IDs": compact sets of lock-variable addresses.
//
// A signature is a bit vector of SizeBits total bits divided into Bins
// equal bins. Adding an address sets one bit per bin; the bit within
// each bin is selected by direct indexing with consecutive low-order
// address bits (after discarding the 2 word-offset bits), following the
// paper's design (after Hu/Wood-style signatures). Set intersection is
// bitwise AND; two signatures may share a lock iff every bin's AND is
// non-zero. Removal is whole-signature clearing, which matches the
// paper's "clear on releasing all locks" policy.
package bloom

import (
	"fmt"
	"math/bits"
)

// Sig is a Bloom-filter signature value. Signatures of up to 64 bits
// are supported (the paper evaluates 8-, 16- and 32-bit signatures).
type Sig uint64

// Config describes a signature layout.
type Config struct {
	SizeBits int // total signature size in bits (power of two, <= 64)
	Bins     int // number of bins (power of two, >= 1)
}

// DefaultConfig is the configuration HAccRG settles on: 16-bit
// signatures with 2 bins (Section VI-A2).
var DefaultConfig = Config{SizeBits: 16, Bins: 2}

// Validate checks that the configuration is realizable.
func (c Config) Validate() error {
	if c.SizeBits <= 0 || c.SizeBits > 64 || c.SizeBits&(c.SizeBits-1) != 0 {
		return fmt.Errorf("bloom: SizeBits must be a power of two in (0,64], got %d", c.SizeBits)
	}
	if c.Bins <= 0 || c.Bins&(c.Bins-1) != 0 {
		return fmt.Errorf("bloom: Bins must be a positive power of two, got %d", c.Bins)
	}
	if c.Bins > c.SizeBits {
		return fmt.Errorf("bloom: Bins (%d) exceeds SizeBits (%d)", c.Bins, c.SizeBits)
	}
	if c.SizeBits/c.Bins < 2 {
		return fmt.Errorf("bloom: bins of %d bits cannot index", c.SizeBits/c.Bins)
	}
	return nil
}

// BinBits returns the number of bits per bin.
func (c Config) BinBits() int { return c.SizeBits / c.Bins }

// indexBits returns how many address bits select a bit within one bin.
func (c Config) indexBits() int { return bits.Len(uint(c.BinBits())) - 1 }

// Add returns s with addr inserted. One bit per bin is set; every bin
// is indexed directly by the k = log2(bin bits) low-order address bits
// (after discarding the 2 word-offset bits, as lock variables are
// word-aligned). Indexing each bin with the same low-order bits is
// what reproduces the paper's measured miss rates — 25%, 12.5% and
// 6.25% for 8-, 16- and 32-bit 2-bin signatures, i.e. 2^-k — and its
// observation that 2 bins beat 4 bins at equal size (fewer, larger
// bins mean more index bits per bin).
func (c Config) Add(s Sig, addr uint64) Sig {
	k := uint(c.indexBits())
	idx := (addr >> 2) & (1<<k - 1)
	binBits := uint(c.BinBits())
	for i := 0; i < c.Bins; i++ {
		s |= 1 << (uint(i)*binBits + uint(idx))
	}
	return s
}

// MayIntersect reports whether two signatures may represent sets with a
// common element: every bin's intersection must be non-empty. An empty
// signature never intersects anything.
func (c Config) MayIntersect(a, b Sig) bool {
	if a == 0 || b == 0 {
		return false
	}
	binBits := uint(c.BinBits())
	mask := Sig(1)<<binBits - 1
	x := a & b
	for i := 0; i < c.Bins; i++ {
		if (x>>(uint(i)*binBits))&mask == 0 {
			return false
		}
	}
	return true
}

// Intersect returns the bitwise intersection of two signatures. This is
// what the RDU stores back into the shadow entry's atomic-ID field:
// the set of locks that have protected the variable so far.
func (c Config) Intersect(a, b Sig) Sig { return a & b }

// Mask returns the valid-bit mask for this configuration, useful for
// hardware-cost accounting and tests.
func (c Config) Mask() Sig {
	if c.SizeBits == 64 {
		return ^Sig(0)
	}
	return Sig(1)<<uint(c.SizeBits) - 1
}

// AliasProbability returns the analytical probability that a second,
// distinct uniformly random address produces the same signature as a
// given one: 2^-k with k index bits per bin. This is the "missed
// race" rate of the paper's stress test — 25% / 12.5% / 6.25% for
// 8/16/32-bit 2-bin signatures.
func (c Config) AliasProbability() float64 {
	p := 1.0
	for i := 0; i < c.indexBits(); i++ {
		p /= 2
	}
	return p
}
