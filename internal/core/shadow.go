package core

// The global shadow is the detector's model of the per-granule shadow
// entries HAccRG keeps in device memory. It used to be a Go map keyed
// by granule number, which put a hash lookup, a heap-allocated entry
// and map-growth churn on every global-memory lane check — the per
// access metadata cost the paper moves into hardware. It is now a
// paged flat array: granule g lives at pages[g>>shadowPageShift][g&
// shadowPageMask], pages allocate lazily on first touch, and kernel
// boundaries wipe entries in place (the paper's cudaMemset of the
// shadow region) instead of reallocating, so the steady-state hot
// path is two shifts, a bounds check and a pointer chase with zero
// allocations.

const (
	// shadowPageShift sizes a page at 4Ki entries: big enough that the
	// page table stays tiny for every benchmark footprint, small enough
	// that sparse address spaces don't materialize dead entries.
	shadowPageShift = 12
	shadowPageLen   = 1 << shadowPageShift
	shadowPageMask  = shadowPageLen - 1
)

// shadowPage is one fixed-size block of shadow entries. Pages never
// move once allocated, so *packedGlobal pointers into them stay valid
// across later insertions (unlike map entries).
type shadowPage [shadowPageLen]packedGlobal

// pagedShadow is the paged flat-array global shadow. The zero value is
// an empty shadow ready for use.
type pagedShadow struct {
	pages []*shadowPage
}

// lookup returns granule g's entry, or nil when no access has claimed
// it (the map version's "not in the map").
func (s *pagedShadow) lookup(g uint64) *packedGlobal {
	idx := g >> shadowPageShift
	if idx >= uint64(len(s.pages)) {
		return nil
	}
	p := s.pages[idx]
	if p == nil {
		return nil
	}
	e := &p[g&shadowPageMask]
	if e.meta&gwPresent == 0 {
		return nil
	}
	return e
}

// entry returns a pointer to granule g's slot, allocating its page on
// first touch. The slot may hold a cleared entry; the caller claims it
// by storing a meta word with the present bit set.
func (s *pagedShadow) entry(g uint64) *packedGlobal {
	idx := g >> shadowPageShift
	if idx >= uint64(len(s.pages)) {
		grown := make([]*shadowPage, idx+1)
		copy(grown, s.pages)
		s.pages = grown
	}
	p := s.pages[idx]
	if p == nil {
		p = new(shadowPage)
		s.pages[idx] = p
	}
	return &p[g&shadowPageMask]
}

// clear forgets granule g's access history (the degradation policy's
// reinit: the granule stays tracked, its next access is a first
// access).
func (s *pagedShadow) clear(g uint64) {
	if e := s.lookup(g); e != nil {
		*e = packedGlobal{}
	}
}

// reset wipes every entry in place while keeping the allocated pages,
// so per-kernel resets stop paying map reallocation and GC churn.
func (s *pagedShadow) reset() {
	for _, p := range s.pages {
		if p != nil {
			*p = shadowPage{}
		}
	}
}

// drop releases the pages entirely (Detector.Reset between
// experiments).
func (s *pagedShadow) drop() { s.pages = nil }
