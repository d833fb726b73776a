// Package core implements HAccRG, the paper's hardware-accelerated
// data-race detector for GPUs: per-SM shared-memory Race Detection
// Units, per-partition global-memory RDUs with shadow entries stored
// in device memory, a happens-before state machine over
// (tid, modified, shared) shadow fields, sync-ID and fence-ID logical
// clocks, and Bloom-filter lockset checking for critical sections.
package core

import (
	"fmt"

	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// Kind classifies a race by the conflicting access pair.
type Kind uint8

// Race kinds, as in the paper's Figure 3 state machine.
const (
	KindWAR Kind = iota // write after read
	KindRAW             // read after write
	KindWAW             // write after write
)

func (k Kind) String() string {
	switch k {
	case KindWAR:
		return "WAR"
	case KindRAW:
		return "RAW"
	case KindWAW:
		return "WAW"
	}
	return "kind?"
}

// Category classifies a race by the synchronization defect that
// allowed it, following the paper's four evaluation categories.
type Category uint8

// Race categories.
const (
	// CatBarrier: conflicting accesses from different warps of the
	// same thread-block between two barriers (missing __syncthreads).
	CatBarrier Category = iota
	// CatCrossBlock: conflicting accesses from different thread-blocks
	// with no lock or fence discipline (e.g. single-block kernels
	// launched with many blocks, as in SCAN and KMEANS).
	CatCrossBlock
	// CatLockset: critical-section races — disjoint locksets or mixed
	// protected/unprotected access.
	CatLockset
	// CatFence: a consumer read a producer's write before the producer
	// executed a memory fence (fence-ID clocks matched).
	CatFence
	// CatStaleL1: a read hit the reader SM's non-coherent L1 while a
	// different SM had modified the location (Section IV-B).
	CatStaleL1
	// CatIntraWarp: two lanes of one warp instruction wrote the same
	// address (detected before the request issues).
	CatIntraWarp
)

func (c Category) String() string {
	switch c {
	case CatBarrier:
		return "barrier"
	case CatCrossBlock:
		return "cross-block"
	case CatLockset:
		return "lockset"
	case CatFence:
		return "fence"
	case CatStaleL1:
		return "stale-l1"
	case CatIntraWarp:
		return "intra-warp"
	}
	return "cat?"
}

// Race is one distinct detected race, deduplicated by
// (kernel, space, kind, category, pc, granule). Count tracks how many
// dynamic instances collapsed into it.
type Race struct {
	Kernel   string
	Space    isa.Space
	Kind     Kind
	Category Category
	PC       int
	Stmt     string // builder annotation of the offending instruction
	Granule  uint64 // granule index within the space
	Addr     uint64 // first offending byte address observed

	FirstTid    int // the shadow entry's recorded accessor
	FirstBlock  int
	SecondTid   int // the accessor that exposed the race
	SecondBlock int

	// Provenance marks reports not produced by the shadow state
	// machine: "StaticWitness" for quarantine pre-seeded races (a
	// verified static witness fired on first touch). Empty for ordinary
	// dynamic reports.
	Provenance string

	Cycle int64
	Count int64
}

func (r *Race) String() string {
	stmt := ""
	if r.Stmt != "" {
		stmt = " [" + r.Stmt + "]"
	}
	prov := ""
	if r.Provenance != "" {
		prov = " <" + r.Provenance + ">"
	}
	return fmt.Sprintf("%s race (%s) in %s: %s addr %#x granule %d pc %d%s%s: T(b%d,t%d) vs T(b%d,t%d) x%d",
		r.Kind, r.Category, r.Kernel, r.Space, r.Addr, r.Granule, r.PC, stmt, prov,
		r.FirstBlock, r.FirstTid, r.SecondBlock, r.SecondTid, r.Count)
}

// RacesOf returns the distinct races recorded by det or by any
// detector it wraps, unwrapping recorders (a journal.Recorder) until
// it finds a race source. Detectors that track no races yield nil.
func RacesOf(det gpu.Detector) []*Race {
	for det != nil {
		if src, ok := det.(interface{ Races() []*Race }); ok {
			return src.Races()
		}
		unwrap, ok := det.(interface{ Inner() gpu.Detector })
		if !ok {
			return nil
		}
		det = unwrap.Inner()
	}
	return nil
}

// raceKey is a race's identity. The kernel is its name's number
// (Detector.kernelIDs), so the key holds no string.
type raceKey struct {
	kernel  int
	space   isa.Space
	kind    Kind
	cat     Category
	pc      int
	granule uint64
}

type siteKey struct {
	space   isa.Space
	kind    Kind
	granule uint64
}
