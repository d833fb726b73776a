package staticrace

import "math/bits"

// Granule tables. The prover, the fence lint and the witness engine
// all answer per-granule questions over a multiset of (granule,
// accessor) incidences. Each lays its incidences out as one flat table
// sized to their count, sorts it by granule key, and walks each run of
// equal keys as a sub-slice. The sort is stable, so the order in which
// rows were generated survives as the tie-break within a granule.
//
// Tables are sized to their rows, never to the key range: granule keys
// are sparse (a shared key carries its block in the high half), so a
// key-indexed array would grow with the address space, not the work.

// gent is one row of a granule table: a granule key, the accessor, and
// an item index. The prover stores (global thread id, footprint index);
// the replay stores (thread index, access index within the thread).
type gent struct {
	key uint64
	who uint64
	idx uint32
}

// radixBits is the digit width of the table sort.
const radixBits = 11

// sortByKey stably sorts t by key with an LSD radix sort, scattering
// through tmp (at least len(t) long), and returns whichever of the two
// holds the result. Only digit windows in which some key differs are
// passed over: block-qualified shared keys vary in their low granule
// bits and in the block bits above bit 32, which typically takes two
// passes, not six.
func sortByKey(t, tmp []gent) []gent {
	if len(t) < 2 {
		return t
	}
	var diff uint64
	for i := range t {
		diff |= t[i].key ^ t[0].key
	}
	tmp = tmp[:len(t)]
	var cnt [1 << radixBits]int
	const mask = 1<<radixBits - 1
	for diff != 0 {
		shift := uint(bits.TrailingZeros64(diff))
		clear(cnt[:])
		for i := range t {
			cnt[(t[i].key>>shift)&mask]++
		}
		sum := 0
		for d, c := range cnt {
			cnt[d] = sum
			sum += c
		}
		for i := range t {
			d := (t[i].key >> shift) & mask
			tmp[cnt[d]] = t[i]
			cnt[d]++
		}
		t, tmp = tmp, t
		diff &^= mask << shift
	}
	return t
}

// table returns the analyzer's scratch table, emptied, with room for n
// rows. One table is live at a time; the buffer is reused across the
// tables of one Analyze call.
func (a *analyzer) table(n int) []gent {
	if cap(a.tab) < n {
		a.tab = make([]gent, 0, n)
	}
	return a.tab[:0]
}

// sortTable sorts a table built in the scratch buffer, reusing the
// second scratch buffer for the scatter.
func (a *analyzer) sortTable(t []gent) []gent {
	if cap(a.tmp) < len(t) {
		a.tmp = make([]gent, len(t))
	}
	return sortByKey(t, a.tmp)
}

// keyRun returns the end of the run of rows sharing t[lo]'s key.
func keyRun(t []gent, lo int) int {
	hi := lo + 1
	for hi < len(t) && t[hi].key == t[lo].key {
		hi++
	}
	return hi
}
