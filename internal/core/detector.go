package core

import (
	"math/bits"
	"sort"

	"haccrg/internal/bloom"
	"haccrg/internal/fault"
	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// Detector is the HAccRG race-detection engine, implementing
// gpu.Detector. One Detector instance models all RDUs of the device:
// the per-SM shared-memory units and the per-partition global units.
// The units are hardware concurrency, and the timing model already
// charges for them as such; their checks run inline on the calling
// (simulation) goroutine, in event order.
type Detector struct {
	opt Options
	env gpu.Env

	kernel string
	// kernelIDs numbers the kernel names started since Reset, and
	// kernelID is the running kernel's number: races are keyed by it
	// (raceKey), so a report hashes no string, and two launches of one
	// kernel share their races.
	kernelIDs map[string]int
	kernelID  int
	warpSize  int
	// warpShift strength-reduces the warp-ID division on the check hot
	// path: tid>>warpShift when the warp size is a power of two (every
	// shipped config), -1 to fall back to division when it is not.
	warpShift int

	// sharedShadow[sm][granule] of packed 12-bit entries, each SM's
	// tile sharedEntries long to cover its full shared memory. A tile
	// is allocated at its SM's first use (sharedTile), so an SM no
	// block reaches has none.
	sharedShadow  [][]sharedWord
	sharedEntries int
	// gshadow is the global-memory shadow. A granule's entry belongs to
	// the RDU of the partition its line is interleaved to, and no check
	// ever touches another partition's entries, so one flat shadow
	// indexed by granule models all of them.
	gshadow pagedShadow

	// The running device's partition map and lockset signature layout,
	// from its Config at KernelStart.
	parts gpu.Partitions
	bloom bloom.Config

	races []*Race
	// raceChunk is where newRace takes the next Race from. A chunk is
	// never grown in place, so the races handed out never move.
	raceChunk []Race
	seen      map[raceKey]*Race
	sites     map[siteKey]struct{}

	// filter and seeder are the static race-freedom filter and the
	// witness seeder SetStaticFilter and SetWitnessSeeds attached (nil =
	// none).
	filter StaticFilter
	seeder WitnessSeeder

	// siteFilter is the running kernel's static race-freedom mask
	// (from filter), cached at KernelStart; siteFilter[pc]
	// true lets the RDUs skip that pc's checks. nil when no filter is
	// attached, the kernel is unknown to it, or a fault plan is live
	// (filtering would desynchronize the injector streams).
	siteFilter []bool

	// seedPend maps pending witness-seeded global granules to their
	// seeds (from seeder), populated at KernelStart; the first
	// touching lane fires the report and retires the entry. Unlike the
	// filter it is NOT inert under fault plans — seeds add a report
	// without consuming injector randomness or altering the check
	// stream.
	seedPend map[uint64]*SeedWitness

	stats Stats

	// scratch holds small per-event buffers reused across WarpMem
	// calls. A warp instruction touches at most WarpSize lanes, so
	// insertion-sorted slices replace the per-event maps the hot path
	// used to allocate; each buffer is dead once WarpMem returns.
	scratch struct {
		arrivals []lineArrival // distinct demand lines, sorted by line
		lines    []uint64      // distinct shadow lines, sorted (Fig. 8 mode)
		seen     []laneAddr    // intra-warp WAW dedup, insertion order
	}

	// Fault-injection state (see health.go). inj is non-nil only when
	// Options.Fault holds a non-empty plan; all fault hooks are gated
	// on it so the fault-free path stays byte-identical to a build
	// without the subsystem. The quarantine sets persist across
	// launches (stuck cells are physical) until Reset.
	inj    *fault.Injector
	health gpu.DetectorHealth
	gquar  map[uint64]struct{} // quarantined global granules
	squar  map[uint64]struct{} // quarantined shared cells, keyed sm<<40 | granule
	// Summed popcounts of the lockset signatures observed at lockset
	// checks, and how many were summed (DetectorHealth.BloomFillPct).
	fillBits int64
	fillN    int64
}

// New builds a detector; options must validate.
func New(opt Options) (*Detector, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return &Detector{
		opt:       opt,
		kernelIDs: make(map[string]int),
		seen:      make(map[raceKey]*Race),
		sites:     make(map[siteKey]struct{}),
		inj:       fault.New(opt.Fault, opt.FaultSeed),
	}, nil
}

// MustNew is New panicking on invalid options.
func MustNew(opt Options) *Detector {
	d, err := New(opt)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements gpu.Detector.
func (d *Detector) Name() string {
	switch {
	case d.opt.Shared && d.opt.Global:
		return "haccrg(shared+global)"
	case d.opt.Shared:
		return "haccrg(shared)"
	default:
		return "haccrg(global)"
	}
}

// Options returns the active configuration.
func (d *Detector) Options() Options { return d.opt }

// SetStaticFilter attaches (or, with nil, detaches) a static
// race-freedom filter after construction — the harness builds the
// detector first, derives the analyzer configuration from its options,
// and only then has kernels to analyze. Takes effect at the next
// KernelStart.
func (d *Detector) SetStaticFilter(f StaticFilter) { d.filter = f }

// SetWitnessSeeds attaches (or, with nil, detaches) a witness seeder,
// mirroring SetStaticFilter. Seeds fire before any filtering or fault
// hook, so seeded findings are byte-identical with and without fault
// plans. Takes effect at the next KernelStart.
func (d *Detector) SetWitnessSeeds(s WitnessSeeder) { d.seeder = s }

// pcFiltered reports whether the running kernel's mask proves the
// site at pc race-free.
func (d *Detector) pcFiltered(pc int) bool {
	return d.siteFilter != nil && pc >= 0 && pc < len(d.siteFilter) && d.siteFilter[pc]
}

// Stats returns detection activity counters.
func (d *Detector) Stats() Stats { return d.stats }

// Races returns the distinct detected races, ordered by first
// detection.
func (d *Detector) Races() []*Race { return d.races }

// SiteCount returns the number of distinct (kind, granule) race sites
// in the given space — the unit Table III counts false races in.
func (d *Detector) SiteCount(space isa.Space) int {
	n := 0
	for k := range d.sites {
		if k.space == space {
			n++
		}
	}
	return n
}

// RaceGroups returns the set of distinct (space, kind, category)
// combinations among detected races — a PC-independent fingerprint
// used to tell whether an injected defect introduced a new kind of
// race relative to a baseline run. It counts the races of each group,
// then names each group once.
func (d *Detector) RaceGroups() map[string]int {
	type group struct {
		space isa.Space
		kind  Kind
		cat   Category
		n     int
	}
	var gs []group
	for _, r := range d.races {
		i := 0
		for i < len(gs) && (gs[i].space != r.Space || gs[i].kind != r.Kind || gs[i].cat != r.Category) {
			i++
		}
		if i == len(gs) {
			gs = append(gs, group{space: r.Space, kind: r.Kind, cat: r.Category})
		}
		gs[i].n++
	}
	m := make(map[string]int, len(gs))
	for _, g := range gs {
		m[g.space.String()+"/"+g.kind.String()+"/"+g.cat.String()] = g.n
	}
	return m
}

// Reset drops all recorded races and shadow state (between
// experiments; kernel boundaries reset shadow state automatically).
func (d *Detector) Reset() {
	d.races = nil
	d.raceChunk = nil
	d.kernelIDs = make(map[string]int)
	d.seen = make(map[raceKey]*Race)
	d.sites = make(map[siteKey]struct{})
	d.sharedShadow = nil
	d.gshadow.drop()
	d.siteFilter = nil
	d.seedPend = nil
	d.stats = Stats{}
	d.resetFaultState()
}

// KernelStart implements gpu.Detector: kernel launch is an implicit
// barrier; all shadow entries reset to the no-access state (the
// paper's cudaMemset of the global shadow at kernel boundaries).
func (d *Detector) KernelStart(env gpu.Env, kernelName string) {
	cfg := env.Config()
	d.env = env
	d.kernel = kernelName
	id, ok := d.kernelIDs[kernelName]
	if !ok {
		id = len(d.kernelIDs)
		d.kernelIDs[kernelName] = id
	}
	d.kernelID = id
	d.warpSize = cfg.WarpSize
	d.warpShift = -1
	if d.warpSize&(d.warpSize-1) == 0 {
		d.warpShift = bits.TrailingZeros(uint(d.warpSize))
	}
	d.siteFilter = nil
	if d.filter != nil && d.inj == nil {
		d.siteFilter = d.filter.FilterSites(kernelName)
	}
	d.seedPend = nil
	if d.seeder != nil {
		for _, w := range d.seeder.WitnessSeeds(kernelName) {
			if w.Space != isa.SpaceGlobal {
				continue
			}
			if d.seedPend == nil {
				d.seedPend = make(map[uint64]*SeedWitness)
			}
			seed := w
			d.seedPend[w.Granule] = &seed
		}
	}
	d.parts = cfg.Partitions()
	d.bloom = cfg.Bloom
	entries := cfg.Shared.SizeBytes / d.opt.SharedGranularity
	if len(d.sharedShadow) != cfg.NumSMs || d.sharedEntries != entries {
		d.sharedShadow = make([][]sharedWord, cfg.NumSMs)
		d.sharedEntries = entries
		d.squar = nil // quarantined cells belonged to the old tiles
	}
	for _, tile := range d.sharedShadow {
		resetShared(tile)
	}
	d.gshadow.reset()
	if d.inj != nil {
		// The launch's cycle clock restarts at zero, so queue and spike
		// phase state restart with it; the PRNG streams and the
		// quarantine sets persist (stuck cells are physical).
		d.inj.Reset()
	}
}

// KernelEnd implements gpu.Detector. Every check has already been
// applied inline, so there is nothing left to settle.
func (d *Detector) KernelEnd() {}

// BlockStart implements gpu.Detector: a new block's shared region is
// fresh; its slot's shadow entries reset (block start is an implicit
// barrier, and the region may be inherited from a retired block).
func (d *Detector) BlockStart(sm int, sharedBase, sharedSize int) {
	if !d.opt.Shared || sharedSize == 0 || d.sharedShadow == nil {
		return
	}
	lo, hi := d.sharedExtent(sharedBase, sharedSize)
	resetShared(d.sharedTile(sm)[lo:hi])
}

// sharedTile returns SM sm's shadow tile, allocating it in the
// no-access state at its first use. Every path to a tile goes through
// here, so a tile never allocated reads as fresh, and a check is never
// skipped for want of one.
func (d *Detector) sharedTile(sm int) []sharedWord {
	tile := d.sharedShadow[sm]
	if tile == nil {
		tile = make([]sharedWord, d.sharedEntries)
		resetShared(tile)
		d.sharedShadow[sm] = tile
	}
	return tile
}

// sharedExtent returns the shadow-entry range [lo, hi) covering a
// block's shared region, clipped to the tile.
func (d *Detector) sharedExtent(sharedBase, sharedSize int) (lo, hi int) {
	lo = sharedBase / d.opt.SharedGranularity
	hi = (sharedBase + sharedSize + d.opt.SharedGranularity - 1) / d.opt.SharedGranularity
	return lo, min(hi, d.sharedEntries)
}

// Barrier implements gpu.Detector: reset the block's shared shadow
// entries and charge the invalidation cycles the paper simulates
// (entries are cleared one row per bank per cycle).
func (d *Detector) Barrier(sm, blockID int, sharedBase, sharedSize int, cycle int64) int64 {
	if !d.opt.Shared || sharedSize == 0 {
		return 0
	}
	lo, hi := d.sharedExtent(sharedBase, sharedSize)
	resetShared(d.sharedTile(sm)[lo:hi])
	d.stats.BarrierInval++
	if !d.opt.ModelTraffic {
		return 0 // software builds charge their own costs
	}

	entries := int64(hi - lo)
	banks := int64(d.env.Config().Shared.Banks)
	stall := (entries + banks - 1) / banks

	if d.opt.SharedShadowInGlobal {
		// Invalidation becomes a sweep of global-memory shadow lines
		// written through this SM's L1.
		lineBytes := int64(d.env.Config().SegmentBytes)
		base := d.sharedSlotAddr(sm, uint64(lo))
		span := entries * SharedSlotBytes
		done := cycle
		for off := int64(0); off < span; off += lineBytes {
			start := cycle
			if d.inj != nil {
				start = d.spiked(fault.UnitShared, sm, start)
			}
			done = max(done, d.env.InstrTx(sm, start, base+uint64(off), true))
			d.stats.ShadowWrites++
		}
		return done - cycle
	}
	return stall
}

// sharedSlotAddr returns the address of shared granule g's slot in SM
// sm's Figure 8 shadow tile. The tiles follow the global shadow's last
// slot, one per SM, each covering the SM's full shared memory.
func (d *Detector) sharedSlotAddr(sm int, g uint64) uint64 {
	mem := d.env.GlobalMemSize()
	tile := uint64(d.env.Config().Shared.SizeBytes/d.opt.SharedGranularity) * SharedSlotBytes
	return GlobalSlotAddr(mem, mem/uint64(d.opt.GlobalGranularity)) + uint64(sm)*tile + g*SharedSlotBytes
}

// WarpMem implements gpu.Detector: dispatch one warp memory
// instruction to the shared- or global-memory RDU.
func (d *Detector) WarpMem(ev *gpu.WarpMemEvent) int64 {
	switch ev.Space {
	case isa.SpaceShared:
		if d.opt.Shared {
			return d.sharedRDU(ev)
		}
	case isa.SpaceGlobal:
		if d.opt.Global {
			return d.globalRDU(ev)
		}
	}
	return 0
}

// report records one dynamic race occurrence from the state machine.
func (d *Detector) report(space isa.Space, kind Kind, cat Category, pc int, stmt string, granule, addr uint64,
	firstTid int, firstBlock int, secondTid, secondBlock int, cycle int64) {
	d.reportProv("", space, kind, cat, pc, stmt, granule, addr,
		firstTid, firstBlock, secondTid, secondBlock, cycle)
}

// reportProv is report with an explicit provenance tag; pre-seeded
// witness races pass "StaticWitness", the state machine passes "". It
// materializes the report: dynamic counting and dedup against the
// seen map.
func (d *Detector) reportProv(prov string, space isa.Space, kind Kind, cat Category, pc int, stmt string, granule, addr uint64,
	firstTid int, firstBlock int, secondTid, secondBlock int, cycle int64) {
	d.stats.Reports++
	if space == isa.SpaceShared {
		d.stats.SharedReports++
	} else {
		d.stats.GlobalReports++
	}
	key := raceKey{d.kernelID, space, kind, cat, pc, granule}
	if r, ok := d.seen[key]; ok {
		r.Count++
		return
	}
	// A repeat report shares its race's (space, kind, granule).
	d.sites[siteKey{space, kind, granule}] = struct{}{}
	r := d.newRace()
	*r = Race{
		Kernel: d.kernel, Space: space, Kind: kind, Category: cat,
		PC: pc, Stmt: stmt, Granule: granule, Addr: addr,
		FirstTid: firstTid, FirstBlock: firstBlock,
		SecondTid: secondTid, SecondBlock: secondBlock,
		Provenance: prov,
		Cycle:      cycle, Count: 1,
	}
	d.seen[key] = r
	d.races = append(d.races, r)
}

// newRace takes the next Race from the current chunk, starting a new
// one when it is full. Each chunk is as long as the race list so far,
// between 16 and 1024 races, so a run allocates a few chunks rather
// than one object per race.
func (d *Detector) newRace() *Race {
	if len(d.raceChunk) == cap(d.raceChunk) {
		d.raceChunk = make([]Race, 0, min(max(len(d.races), 16), 1024))
	}
	d.raceChunk = d.raceChunk[:len(d.raceChunk)+1]
	return &d.raceChunk[len(d.raceChunk)-1]
}

// SortedRaces returns races ordered by (kernel, pc, granule) for
// stable reporting.
func (d *Detector) SortedRaces() []*Race {
	out := make([]*Race, len(d.races))
	copy(out, d.races)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		return a.Granule < b.Granule
	})
	return out
}
