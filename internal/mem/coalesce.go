package mem

import "slices"

// Coalesce groups the byte addresses touched by a warp's global/local
// memory instruction into the minimal set of aligned segments
// (transactions) of segBytes each, the way the GPU's coalescing unit
// does, and appends them to dst. Accesses spanning a segment boundary
// contribute to both segments. Segments are appended in first-touch
// order, which is deterministic for a given warp. A warp touches few
// segments, so duplicates are found by a linear scan of the segments
// appended so far; with a dst of enough capacity Coalesce allocates
// nothing.
func Coalesce(dst, addrs []uint64, accessBytes int, segBytes int) []uint64 {
	mask := ^(uint64(segBytes) - 1)
	start := len(dst)
	for _, a := range addrs {
		dst = appendSegment(dst, start, a&mask)
		if end := a + uint64(accessBytes) - 1; end&mask != a&mask {
			dst = appendSegment(dst, start, end&mask)
		}
	}
	return dst
}

// appendSegment appends base to dst unless dst[start:] holds it.
func appendSegment(dst []uint64, start int, base uint64) []uint64 {
	if slices.Contains(dst[start:], base) {
		return dst
	}
	return append(dst, base)
}
