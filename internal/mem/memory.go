// Package mem models the GPU memory system: flat byte-addressable
// device memory, banked per-SM shared memory, non-coherent L1 caches,
// banked coherent L2 caches, a DRAM channel timing model with
// bandwidth-utilization accounting, and the memory-access coalescer.
//
// Timing uses resource reservation: each component tracks when it is
// next free, and a request's completion cycle is computed analytically
// as it traverses L1 -> interconnect -> L2 -> DRAM. This reproduces
// queueing and bandwidth saturation without a full event engine.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Memory is a flat byte-addressable memory (device/global memory or a
// shared-memory tile). All multi-byte accesses are little-endian.
type Memory struct {
	data []byte
	name string
}

// NewMemory allocates a memory of the given size in bytes.
func NewMemory(name string, size int) *Memory {
	return &Memory{data: make([]byte, size), name: name}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return len(m.data) }

// Bytes exposes the backing storage for host-side initialization.
func (m *Memory) Bytes() []byte { return m.data }

func (m *Memory) check(addr uint64, size int) error {
	if addr+uint64(size) > uint64(len(m.data)) || addr+uint64(size) < addr {
		return fmt.Errorf("mem: %s access [%#x, %#x) out of bounds (size %#x)",
			m.name, addr, addr+uint64(size), len(m.data))
	}
	return nil
}

// Load reads size bytes (1, 2, 4 or 8) at addr, zero-extended.
func (m *Memory) Load(addr uint64, size int) (uint64, error) {
	if err := m.check(addr, size); err != nil {
		return 0, err
	}
	switch size {
	case 1:
		return uint64(m.data[addr]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(m.data[addr:])), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(m.data[addr:])), nil
	case 8:
		return binary.LittleEndian.Uint64(m.data[addr:]), nil
	}
	return 0, fmt.Errorf("mem: %s load of unsupported size %d", m.name, size)
}

// Store writes the low size bytes of v at addr.
func (m *Memory) Store(addr uint64, size int, v uint64) error {
	if err := m.check(addr, size); err != nil {
		return err
	}
	switch size {
	case 1:
		m.data[addr] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(m.data[addr:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(m.data[addr:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(m.data[addr:], v)
	default:
		return fmt.Errorf("mem: %s store of unsupported size %d", m.name, size)
	}
	return nil
}

// LoadF32 reads a float32 at addr, widened to float64.
func (m *Memory) LoadF32(addr uint64) (float64, error) {
	v, err := m.Load(addr, 4)
	if err != nil {
		return 0, err
	}
	return float64(math.Float32frombits(uint32(v))), nil
}

// StoreF32 writes f as a float32 at addr.
func (m *Memory) StoreF32(addr uint64, f float64) error {
	return m.Store(addr, 4, uint64(math.Float32bits(float32(f))))
}

// SetU32 is a host-side helper: word-indexed 32-bit store (panics on
// out-of-range, as host setup errors are programming errors).
func (m *Memory) SetU32(wordIdx int, v uint32) {
	binary.LittleEndian.PutUint32(m.data[wordIdx*4:], v)
}

// U32 is a host-side helper: word-indexed 32-bit load.
func (m *Memory) U32(wordIdx int) uint32 {
	return binary.LittleEndian.Uint32(m.data[wordIdx*4:])
}

// SetF32 is a host-side helper: word-indexed float32 store.
func (m *Memory) SetF32(wordIdx int, f float32) {
	binary.LittleEndian.PutUint32(m.data[wordIdx*4:], math.Float32bits(f))
}

// F32 is a host-side helper: word-indexed float32 load.
func (m *Memory) F32(wordIdx int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(m.data[wordIdx*4:]))
}
