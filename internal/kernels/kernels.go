// Package kernels implements the paper's ten CUDA benchmarks against
// the simulator's ISA: MCARLO, SCAN, FWALSH, HIST, SORTNW, REDUCE,
// PSUM, OFFT, KMEANS and HASH (Table II), including the documented
// bugs the paper's detector finds (SCAN and KMEANS are single-block
// kernels launched with multiple blocks; OFFT miscalculates an
// address), plus the race-injection framework of Section VI-A with
// its 41 sites: 23 removable barriers, 13 cross-block dummy accesses,
// 3 removable fences and 2 critical-section dummy accesses.
package kernels

import (
	"context"
	"fmt"
	"sort"

	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// Shared register conventions for all benchmark kernels.
const (
	rTid    = isa.Reg(1)
	rNtid   = isa.Reg(2)
	rBid    = isa.Reg(3)
	rNctaid = isa.Reg(4)
	rGtid   = isa.Reg(5)
	rA      = isa.Reg(6)
	rB      = isa.Reg(7)
	rC      = isa.Reg(8)
	rD      = isa.Reg(9)
	rE      = isa.Reg(10)
	rF      = isa.Reg(11)
	rG      = isa.Reg(12)
	rH      = isa.Reg(13)
	rI      = isa.Reg(14)
	rJ      = isa.Reg(15)
	rK      = isa.Reg(16)
	rL      = isa.Reg(17)
	rM      = isa.Reg(18)
	rN      = isa.Reg(19)
	rO      = isa.Reg(20)
	rP      = isa.Reg(21)

	// Registers reserved for injected code so injections never perturb
	// benchmark state.
	rInj0 = isa.Reg(28)
	rInj1 = isa.Reg(29)
)

// InjectKind classifies an injection site (Section VI-A).
type InjectKind uint8

// Injection kinds with the paper's site counts.
const (
	InjRemoveBarrier InjectKind = iota // 23 sites
	InjDummyCross                      // 13 sites
	InjRemoveFence                     // 3 sites
	InjDummyCritical                   // 2 sites
)

func (k InjectKind) String() string {
	switch k {
	case InjRemoveBarrier:
		return "remove-barrier"
	case InjDummyCross:
		return "dummy-cross-block"
	case InjRemoveFence:
		return "remove-fence"
	case InjDummyCritical:
		return "dummy-critical-section"
	}
	return "inject?"
}

// Site is one declared injection point.
type Site struct {
	ID   string // "<benchmark>.<label>"
	Kind InjectKind
	Desc string
}

// Params configures a benchmark build.
type Params struct {
	// Scale multiplies input sizes (1 = scaled-down paper defaults).
	Scale int
	// Inject activates injection sites by ID.
	Inject map[string]bool
	// SingleBlock launches SCAN and KMEANS in their designed-for
	// single-block configuration, removing their documented bugs.
	SingleBlock bool
}

func (p *Params) scale() int {
	if p.Scale < 1 {
		return 1
	}
	return p.Scale
}

func (p *Params) inj(id string) bool { return p.Inject[id] }

// Plan is a prepared benchmark: kernels to launch in order, the
// application data footprint (Table IV), and an optional output check.
type Plan struct {
	Kernels  []*gpu.Kernel
	AppBytes int
	// Verify checks kernel output against a host computation; nil for
	// benchmarks whose documented bugs make output undefined.
	Verify func(d *gpu.Device) error
}

// Run launches the plan's kernels in order, accumulating stats. It is
// RunContext with no cancellation or cycle budget.
func (p *Plan) Run(d *gpu.Device) (*gpu.LaunchStats, error) {
	return p.RunContext(context.Background(), d, gpu.LaunchLimits{})
}

// RunContext launches the plan's kernels in order under a context and
// a cumulative cycle budget (lim.MaxCycles spans the whole plan, not
// each kernel). On an aborted launch the accumulated stats so far —
// including the aborted kernel's partial stats — are returned
// alongside the error, which is a *gpu.HangError for guard-rail trips.
func (p *Plan) RunContext(ctx context.Context, d *gpu.Device, lim gpu.LaunchLimits) (*gpu.LaunchStats, error) {
	if len(p.Kernels) == 0 {
		return nil, fmt.Errorf("kernels: empty plan")
	}
	total := &gpu.LaunchStats{Kernel: p.Kernels[0].Name}
	remaining := lim.MaxCycles
	for _, k := range p.Kernels {
		var kl gpu.LaunchLimits
		if lim.MaxCycles > 0 {
			if remaining < 1 {
				// Budget already spent: a 1-cycle allowance makes the
				// next launch trip the guard rail with full diagnostics
				// instead of silently running unbounded.
				remaining = 1
			}
			kl.MaxCycles = remaining
		}
		st, err := d.LaunchContext(ctx, k, kl)
		if st != nil {
			total.Add(st)
			remaining -= st.Cycles
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Benchmark describes one workload.
type Benchmark struct {
	Name  string
	Desc  string
	Input string // human-readable input description at Scale 1
	Sites []Site
	Build func(d *gpu.Device, p Params) (*Plan, error)
	// GlobalBytes returns the device-memory requirement at a scale.
	GlobalBytes func(scale int) int
	// Defective marks a deliberately-broken kernel kept as a static
	// analyzer true-positive fixture. Defective benchmarks are
	// excluded from All() and hence from every bench sweep.
	Defective bool
}

// Site returns the benchmark's site with the given suffix.
func (b *Benchmark) Site(suffix string) *Site {
	id := b.Name + "." + suffix
	for i := range b.Sites {
		if b.Sites[i].ID == id {
			return &b.Sites[i]
		}
	}
	return nil
}

var registry = map[string]*Benchmark{}

func register(b *Benchmark) *Benchmark {
	if _, dup := registry[b.Name]; dup {
		panic("kernels: duplicate benchmark " + b.Name)
	}
	registry[b.Name] = b
	return b
}

// Get returns a benchmark by name (nil if unknown).
func Get(name string) *Benchmark { return registry[name] }

// All returns every runnable benchmark in the paper's Table II order.
// Deliberately-defective analyzer fixtures are excluded; use
// AllIncludingDefective to see those too.
func All() []*Benchmark {
	out := make([]*Benchmark, 0, len(registry))
	for _, b := range AllIncludingDefective() {
		if !b.Defective {
			out = append(out, b)
		}
	}
	return out
}

// AllIncludingDefective returns every registered benchmark — Table II
// order first, then extras sorted by name — including the defective
// static-analyzer fixtures that All() hides from sweeps.
func AllIncludingDefective() []*Benchmark {
	order := []string{"mcarlo", "scan", "fwalsh", "hist", "sortnw",
		"reduce", "psum", "offt", "kmeans", "hash"}
	out := make([]*Benchmark, 0, len(registry))
	for _, n := range order {
		if b, ok := registry[n]; ok {
			out = append(out, b)
		}
	}
	// Append any extras deterministically (future benchmarks).
	var extra []string
	for n := range registry {
		found := false
		for _, o := range order {
			if n == o {
				found = true
			}
		}
		if !found {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range extra {
		out = append(out, registry[n])
	}
	return out
}

// --- emission helpers shared by the benchmarks ---

// preamble loads the standard special registers.
func preamble(b *isa.Builder) {
	b.Sreg(rTid, isa.SregTid)
	b.Sreg(rNtid, isa.SregNtid)
	b.Sreg(rBid, isa.SregCtaid)
	b.Sreg(rNctaid, isa.SregNctaid)
	b.Sreg(rGtid, isa.SregGtid)
}

// bar emits a barrier unless the (remove-barrier) site is injected.
func bar(b *isa.Builder, p *Params, siteID string) {
	if p.inj(siteID) {
		return
	}
	b.Bar()
}

// fence emits a memory fence unless the (remove-fence) site is injected.
func fence(b *isa.Builder, p *Params, siteID string) {
	if p.inj(siteID) {
		return
	}
	b.Membar()
}

// dummyCross emits, when the site is injected, a global store that
// crosses thread-block access boundaries: every block writes the same
// small region, racing with the other blocks. dummyParam is the param
// slot holding the dummy region's base address.
func dummyCross(b *isa.Builder, p *Params, siteID string, dummyParam int64) {
	if !p.inj(siteID) {
		return
	}
	b.Ldp(rInj0, dummyParam)
	b.Remi(rInj1, rTid, 8)
	b.Muli(rInj1, rInj1, 4)
	b.Add(rInj0, rInj0, rInj1)
	b.St(isa.SpaceGlobal, rInj0, 0, rTid, 4)
}

// dummyCritical emits, when the site is injected, an access to the
// dummy region from inside (or outside) a critical section; combined
// with the unprotected accesses the same region receives elsewhere,
// it produces a lockset race.
func dummyCritical(b *isa.Builder, p *Params, siteID string, dummyParam int64) {
	if !p.inj(siteID) {
		return
	}
	b.Ldp(rInj0, dummyParam)
	b.Ld(rInj1, isa.SpaceGlobal, rInj0, 0, 4)
	b.Addi(rInj1, rInj1, 1)
	b.St(isa.SpaceGlobal, rInj0, 0, rInj1, 4)
}

// dummyBytes is the size of the per-workload dummy region used by
// injection sites.
const dummyBytes = 64
