// Package fault implements a deterministic, seedable fault-injection
// framework for the simulated HAccRG detection pipeline. A Plan
// describes which hardware faults to model — RDU check-queue overflow
// under burst load, shadow-memory bit flips and stuck-at cells (with
// an optional modeled ECC scrub), Bloom-filter saturation, and
// shadow-fetch latency spikes at the memory partitions — and an
// Injector executes the plan with a seeded PRNG so that the same
// (plan, seed) pair reproduces the same fault sequence byte for byte.
//
// The injector is pure mechanism: it decides *when* a fault fires and
// *which* bit or granule it hits; the detector (internal/core) applies
// the consequence and its degradation policy, and accounts the damage
// in its DetectorHealth report.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Unit identifies which RDU class a check queue belongs to.
type Unit uint8

// RDU unit classes. Shared-memory RDUs are per-SM; global-memory RDUs
// are per-partition.
const (
	UnitShared Unit = iota
	UnitGlobal
)

// Plan is a declarative fault-injection configuration. The zero value
// injects nothing. Plans parse from and render to a compact spec
// string (see Parse) so they can travel through CLI flags and CSV
// metadata unchanged.
type Plan struct {
	// QueueCap bounds each RDU's check queue (lane checks). 0 models
	// the paper's idealized unbounded queue; a positive value drops —
	// and counts — checks that arrive while the queue is full.
	QueueCap int
	// QueueDrain is how many queued checks an RDU retires per cycle
	// (default 1 when QueueCap > 0).
	QueueDrain int

	// FlipRate is the per-shadow-entry-read probability of a single-bit
	// soft error in the entry's architectural bits.
	FlipRate float64
	// ECC models a SECDED scrub beside the shadow SRAM: single-bit
	// flips are detected and corrected (counted, not applied), and
	// stuck-at cells are *detected*, handing the granule to the
	// detector's degradation policy instead of silently corrupting it.
	ECC bool

	// StuckPerKi makes roughly StuckPerKi out of every 1024 shadow
	// granules stuck-at: their entries always read back a fixed
	// corrupted pattern derived from the granule index and seed.
	StuckPerKi int

	// BloomFill saturates lockset signatures: before each lockset
	// check, random bits are OR-ed into the access's signature until
	// its fill ratio reaches this target (0 disables, 1 = all ones).
	// A saturated filter intersects with everything, so protected
	// accesses stop reporting lockset races — the classic silent
	// false-negative mode of Bloom-based detectors.
	BloomFill float64

	// SpikeExtra adds this many cycles to every SpikePeriod-th shadow
	// fetch (0 disables either way), modeling shadow-SRAM/DRAM
	// contention spikes at the partitions.
	SpikeExtra  int64
	SpikePeriod int64
}

// Validate checks plan parameters.
func (p *Plan) Validate() error {
	if p.QueueCap < 0 {
		return fmt.Errorf("fault: queue cap %d negative", p.QueueCap)
	}
	if p.QueueCap > 0 && p.QueueDrain < 0 {
		return fmt.Errorf("fault: queue drain %d negative", p.QueueDrain)
	}
	if p.FlipRate < 0 || p.FlipRate > 1 {
		return fmt.Errorf("fault: flip rate %g outside [0,1]", p.FlipRate)
	}
	if p.StuckPerKi < 0 || p.StuckPerKi > 1024 {
		return fmt.Errorf("fault: stuck per-Ki %d outside [0,1024]", p.StuckPerKi)
	}
	if p.BloomFill < 0 || p.BloomFill > 1 {
		return fmt.Errorf("fault: bloom fill %g outside [0,1]", p.BloomFill)
	}
	if p.SpikeExtra < 0 || p.SpikePeriod < 0 {
		return fmt.Errorf("fault: spike extra/period negative")
	}
	return nil
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (p.QueueCap == 0 && p.FlipRate == 0 && p.StuckPerKi == 0 &&
		p.BloomFill == 0 && (p.SpikeExtra == 0 || p.SpikePeriod == 0))
}

// Parse builds a plan from its spec string: semicolon-separated
// clauses, each "kind" or "kind:key=value,key=value".
//
//	queue:cap=16,drain=1      bounded RDU check queues
//	flip:rate=1e-5,ecc        shadow bit flips (ecc enables the scrub)
//	stuck:perki=4,ecc         ~4 of every 1024 granules stuck-at
//	                          (ecc detects them and hands them to the
//	                          degradation policy)
//	bloom:fill=0.9            lockset-signature saturation
//	spike:extra=400,period=64 every 64th shadow fetch takes +400 cycles
//
// An empty spec yields an empty plan.
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, args, _ := strings.Cut(clause, ":")
		kv := map[string]string{}
		if args != "" {
			for _, a := range strings.Split(args, ",") {
				k, v, ok := strings.Cut(strings.TrimSpace(a), "=")
				if !ok {
					v = "true" // bare flags like "ecc"
				}
				kv[k] = v
			}
		}
		var err error
		switch kind {
		case "queue":
			p.QueueCap, err = intArg(kv, "cap", p.QueueCap)
			if err == nil {
				p.QueueDrain, err = intArg(kv, "drain", 1)
			}
		case "flip":
			p.FlipRate, err = floatArg(kv, "rate", p.FlipRate)
			if _, ok := kv["ecc"]; ok {
				p.ECC = true
			}
			delete(kv, "ecc")
		case "stuck":
			p.StuckPerKi, err = intArg(kv, "perki", p.StuckPerKi)
			if _, ok := kv["ecc"]; ok {
				p.ECC = true
			}
			delete(kv, "ecc")
		case "bloom":
			p.BloomFill, err = floatArg(kv, "fill", p.BloomFill)
		case "spike":
			var e, per int
			e, err = intArg(kv, "extra", 0)
			if err == nil {
				per, err = intArg(kv, "period", 1)
			}
			p.SpikeExtra, p.SpikePeriod = int64(e), int64(per)
		default:
			return nil, fmt.Errorf("fault: unknown clause %q (want queue/flip/stuck/bloom/spike)", kind)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
		}
		for _, k := range usedKeys[kind] {
			delete(kv, k)
		}
		if len(kv) > 0 {
			return nil, fmt.Errorf("fault: clause %q: unknown keys %v", clause, sortedKeys(kv))
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

var usedKeys = map[string][]string{
	"queue": {"cap", "drain"},
	"flip":  {"rate"},
	"stuck": {"perki"},
	"bloom": {"fill"},
	"spike": {"extra", "period"},
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func intArg(kv map[string]string, key string, def int) (int, error) {
	v, ok := kv[key]
	if !ok {
		return def, nil
	}
	return strconv.Atoi(v)
}

func floatArg(kv map[string]string, key string, def float64) (float64, error) {
	v, ok := kv[key]
	if !ok {
		return def, nil
	}
	return strconv.ParseFloat(v, 64)
}

// String renders the plan in canonical spec form (parseable by Parse).
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	if p.QueueCap > 0 {
		parts = append(parts, fmt.Sprintf("queue:cap=%d,drain=%d", p.QueueCap, p.QueueDrain))
	}
	if p.FlipRate > 0 || p.ECC {
		s := fmt.Sprintf("flip:rate=%g", p.FlipRate)
		if p.ECC {
			s += ",ecc"
		}
		parts = append(parts, s)
	}
	if p.StuckPerKi > 0 {
		parts = append(parts, fmt.Sprintf("stuck:perki=%d", p.StuckPerKi))
	}
	if p.BloomFill > 0 {
		parts = append(parts, fmt.Sprintf("bloom:fill=%g", p.BloomFill))
	}
	if p.SpikeExtra > 0 && p.SpikePeriod > 0 {
		parts = append(parts, fmt.Sprintf("spike:extra=%d,period=%d", p.SpikeExtra, p.SpikePeriod))
	}
	return strings.Join(parts, ";")
}

// Injector executes a plan deterministically. Every random decision is
// drawn from an independent per-(mechanism, unit, id) PRNG stream
// seeded from the run seed, so the fault sequence one RDU observes
// depends only on its own check sequence — never on how checks from
// other RDUs interleave with it. A recorded run therefore replays its
// exact fault decisions from the same (plan, seed) and event stream.
//
// An Injector is not safe for concurrent use.
type Injector struct {
	plan Plan
	seed int64

	queues  map[uint32]*queueState
	streams map[uint64]*stream
}

type queueState struct {
	depth int
	last  int64
}

// stream is one mechanism's PRNG state for one RDU instance.
type stream struct {
	rng     *rand.Rand
	fetches int64 // shadow fetches seen (spike phase accumulator)
}

// Fault-mechanism tags: each mechanism draws from its own stream
// family so enabling one clause never shifts another's sequence.
const (
	mechFlip = iota
	mechSaturate
	mechSpike
)

// stream returns the PRNG stream for (mech, unit, id), creating it on
// first use with a seed mixed from the run seed and the key.
func (in *Injector) stream(mech int, unit Unit, id int) *stream {
	key := uint64(mech)<<40 | uint64(unit)<<32 | uint64(uint32(id))
	s := in.streams[key]
	if s == nil {
		s = &stream{rng: rand.New(rand.NewSource(int64(splitmix64(uint64(in.seed) ^ splitmix64(key)))))}
		in.streams[key] = s
	}
	return s
}

// New builds an injector for the plan (nil or empty plans yield a nil
// injector, which every method treats as "no faults").
func New(p *Plan, seed int64) *Injector {
	if p.Empty() {
		return nil
	}
	cp := *p
	if cp.QueueCap > 0 && cp.QueueDrain == 0 {
		cp.QueueDrain = 1
	}
	return &Injector{
		plan:    cp,
		seed:    seed,
		queues:  make(map[uint32]*queueState),
		streams: make(map[uint64]*stream),
	}
}

// Reset clears dynamic state (queue depths, spike phases) between
// kernels while preserving the PRNG streams, so multi-kernel plans
// stay reproducible end to end.
func (in *Injector) Reset() {
	if in == nil {
		return
	}
	in.queues = make(map[uint32]*queueState)
	for _, s := range in.streams {
		s.fetches = 0
	}
}

// Admit models one burst of n lane checks arriving at the RDU queue of
// (unit, id) at the given cycle and returns how many the queue accepts;
// the caller drops (and counts) the rest. The queue drains QueueDrain
// checks per cycle since its last arrival.
func (in *Injector) Admit(unit Unit, id int, cycle int64, n int) int {
	if in == nil || in.plan.QueueCap <= 0 || n <= 0 {
		return n
	}
	key := uint32(unit)<<24 | uint32(id)&0xffffff
	q := in.queues[key]
	if q == nil {
		q = &queueState{}
		in.queues[key] = q
	}
	if dt := cycle - q.last; dt > 0 {
		drained := dt * int64(in.plan.QueueDrain)
		if drained >= int64(q.depth) {
			q.depth = 0
		} else {
			q.depth -= int(drained)
		}
	}
	q.last = cycle
	free := in.plan.QueueCap - q.depth
	if free < 0 {
		free = 0
	}
	if n > free {
		n = free
	}
	q.depth += n
	return n
}

// FlipBit draws one shadow-entry read's soft-error outcome at the RDU
// (unit, id): ok is true when a flip fires, and bit is the flipped
// position in [0, width). The RDU's flip stream advances exactly once
// per call regardless of outcome, so fault sequences are stable across
// plan variations of the same seed.
func (in *Injector) FlipBit(unit Unit, id, width int) (bit int, ok bool) {
	if in == nil || in.plan.FlipRate <= 0 {
		return 0, false
	}
	draw := in.stream(mechFlip, unit, id).rng.Float64()
	if draw >= in.plan.FlipRate {
		return 0, false
	}
	// Derive the position from the same draw: uniform over width.
	return int(draw / in.plan.FlipRate * float64(width)), true
}

// ECC reports whether the plan models the SECDED scrub.
func (in *Injector) ECC() bool { return in != nil && in.plan.ECC }

// Stuck reports whether the shadow granule g of the given unit class is
// a stuck-at cell under this seed, and returns the fixed pattern its
// entry reads back as. The decision is a pure hash of (seed, unit, g),
// so it is stable across the whole run.
func (in *Injector) Stuck(unit Unit, g uint64) (pattern uint64, ok bool) {
	if in == nil || in.plan.StuckPerKi <= 0 {
		return 0, false
	}
	h := splitmix64(g<<1 ^ uint64(unit) ^ uint64(in.seed)*0x9e3779b97f4a7c15)
	if h&1023 >= uint64(in.plan.StuckPerKi) {
		return 0, false
	}
	return splitmix64(h), true
}

// Saturate ORs random bits into a lockset signature at the RDU
// (unit, id) until its fill ratio over mask reaches the plan's
// BloomFill target. Returns the (possibly) saturated signature and
// whether it changed.
func (in *Injector) Saturate(unit Unit, id int, sig, mask uint64) (out uint64, changed bool) {
	if in == nil || in.plan.BloomFill <= 0 {
		return sig, false
	}
	total := popcount(mask)
	if total == 0 {
		return sig, false
	}
	want := int(in.plan.BloomFill * float64(total))
	out = sig
	rng := in.stream(mechSaturate, unit, id).rng
	for popcount(out&mask) < want {
		out |= 1 << (rng.Intn(64)) & mask
	}
	return out, out != sig
}

// SpikeDelay returns the extra cycles the next shadow fetch at the
// memory unit (unit, id) suffers (0 for most fetches; SpikeExtra every
// SpikePeriod-th fetch at that unit).
func (in *Injector) SpikeDelay(unit Unit, id int) int64 {
	if in == nil || in.plan.SpikeExtra <= 0 || in.plan.SpikePeriod <= 0 {
		return 0
	}
	s := in.stream(mechSpike, unit, id)
	s.fetches++
	if s.fetches%in.plan.SpikePeriod == 0 {
		return in.plan.SpikeExtra
	}
	return 0
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// splitmix64 is the SplitMix64 finalizer: a cheap, high-quality
// stateless hash used for stuck-cell selection.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
