package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"haccrg/internal/bloom"
	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// RecType tags a journal record.
type RecType uint8

// Record types. The zero value is reserved so a zeroed payload never
// decodes as a valid record.
const (
	// RecMeta carries run metadata (benchmark, detector configuration)
	// as JSON, written once at the head of the journal.
	RecMeta RecType = iota + 1
	// RecKernelStart opens a kernel: its name plus an EnvSnapshot of
	// the device parameters a detector reads through gpu.Env.
	RecKernelStart
	// RecKernelEnd closes a kernel.
	RecKernelEnd
	// RecBlockStart is a Detector.BlockStart call.
	RecBlockStart
	// RecBarrier is a Detector.Barrier call.
	RecBarrier
	// RecWarpMem is one warp memory instruction with all lane accesses.
	RecWarpMem
	// RecFence records an Env.CurrentFenceID response — the one piece
	// of device state a verdict reads outside the event stream, so it
	// must travel in-stream for replay to be exact.
	RecFence
	// RecRace is a race verdict the detector reached mid-run, stamped
	// with the cycle it fired.
	RecRace
	// RecVerdict is the cumulative sorted race findings at a kernel's
	// end — the differential oracle's ground truth.
	RecVerdict
)

func (t RecType) String() string {
	switch t {
	case RecMeta:
		return "meta"
	case RecKernelStart:
		return "kernel-start"
	case RecKernelEnd:
		return "kernel-end"
	case RecBlockStart:
		return "block-start"
	case RecBarrier:
		return "barrier"
	case RecWarpMem:
		return "warp-mem"
	case RecFence:
		return "fence"
	case RecRace:
		return "race"
	case RecVerdict:
		return "verdict"
	}
	return fmt.Sprintf("rec?%d", uint8(t))
}

// Meta describes the run that produced a journal, with enough detail
// for `haccrg replay` to rebuild an equivalent detector offline. It
// mirrors the harness RunConfig fields that shape detection.
type Meta struct {
	Bench       string   `json:"bench,omitempty"`
	Detector    string   `json:"detector,omitempty"`
	Scale       int      `json:"scale,omitempty"`
	SingleBlock bool     `json:"single_block,omitempty"`
	Inject      []string `json:"inject,omitempty"`

	SharedGranularity int `json:"shared_granularity,omitempty"`
	GlobalGranularity int `json:"global_granularity,omitempty"`

	FaultPlan   string `json:"fault_plan,omitempty"`
	FaultSeed   int64  `json:"fault_seed,omitempty"`
	Degradation string `json:"degradation,omitempty"`

	// Seeds is the verified witness seed set the live detector was
	// pre-seeded with, per kernel name (nil for unseeded runs, which
	// keeps their meta record byte-identical to earlier versions).
	// Replay installs it so seeded verdicts, StaticWitness provenance
	// included, reproduce offline.
	Seeds map[string][]core.SeedWitness `json:"seeds,omitempty"`
}

// EnvSnapshot freezes the device parameters a detector observes
// through gpu.Env, so Replay can stand in for the device.
type EnvSnapshot struct {
	Config        gpu.Config `json:"config"`
	GlobalMemSize uint64     `json:"global_mem_size"`
}

// Record is one decoded journal record: a tagged union over the
// record types, with only the fields for its Type populated.
type Record struct {
	Type RecType

	Meta *Meta        // RecMeta
	Env  *EnvSnapshot // RecKernelStart

	Kernel string // RecKernelStart, RecKernelEnd

	SM         int   // RecBlockStart, RecBarrier
	Block      int   // RecBarrier, RecFence
	SharedBase int   // RecBlockStart, RecBarrier
	SharedSize int   // RecBlockStart, RecBarrier
	Cycle      int64 // RecBarrier, RecRace

	Ev *gpu.WarpMemEvent // RecWarpMem

	Warp    int    // RecFence: warp index within the block
	FenceID uint32 // RecFence

	Race    string   // RecRace: canonical race description
	Verdict []string // RecVerdict: sorted canonical race descriptions
}

// --- encoding ---

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendRecord serializes rec onto b and returns the extended slice.
// JSON is used for the rare configuration-carrying records (meta,
// kernel start); the hot warp-memory records are packed varints.
func AppendRecord(b []byte, rec *Record) ([]byte, error) {
	b = append(b, byte(rec.Type))
	switch rec.Type {
	case RecMeta:
		js, err := json.Marshal(rec.Meta)
		if err != nil {
			return nil, fmt.Errorf("journal: encoding meta: %w", err)
		}
		b = binary.AppendUvarint(b, uint64(len(js)))
		b = append(b, js...)
	case RecKernelStart:
		b = appendString(b, rec.Kernel)
		js, err := json.Marshal(rec.Env)
		if err != nil {
			return nil, fmt.Errorf("journal: encoding env snapshot: %w", err)
		}
		b = binary.AppendUvarint(b, uint64(len(js)))
		b = append(b, js...)
	case RecKernelEnd:
		b = appendString(b, rec.Kernel)
	case RecBlockStart:
		b = binary.AppendVarint(b, int64(rec.SM))
		b = binary.AppendVarint(b, int64(rec.SharedBase))
		b = binary.AppendVarint(b, int64(rec.SharedSize))
	case RecBarrier:
		b = binary.AppendVarint(b, int64(rec.SM))
		b = binary.AppendVarint(b, int64(rec.Block))
		b = binary.AppendVarint(b, int64(rec.SharedBase))
		b = binary.AppendVarint(b, int64(rec.SharedSize))
		b = binary.AppendVarint(b, rec.Cycle)
	case RecWarpMem:
		b = appendWarpMem(b, rec.Ev)
	case RecFence:
		b = binary.AppendVarint(b, int64(rec.Block))
		b = binary.AppendVarint(b, int64(rec.Warp))
		b = binary.AppendUvarint(b, uint64(rec.FenceID))
	case RecRace:
		b = binary.AppendVarint(b, rec.Cycle)
		b = appendString(b, rec.Race)
	case RecVerdict:
		b = binary.AppendUvarint(b, uint64(len(rec.Verdict)))
		for _, v := range rec.Verdict {
			b = appendString(b, v)
		}
	default:
		return nil, fmt.Errorf("journal: cannot encode record type %v", rec.Type)
	}
	return b, nil
}

func appendWarpMem(b []byte, ev *gpu.WarpMemEvent) []byte {
	b = append(b, byte(ev.Space))
	var flags byte
	if ev.Write {
		flags |= 1
	}
	if ev.Atomic {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.AppendVarint(b, int64(ev.PC))
	b = binary.AppendVarint(b, int64(ev.SM))
	b = binary.AppendVarint(b, int64(ev.Block))
	b = binary.AppendVarint(b, int64(ev.WarpInBlock))
	b = appendString(b, ev.Kernel)
	b = appendString(b, ev.Stmt)
	b = binary.AppendUvarint(b, uint64(ev.SyncID))
	b = binary.AppendUvarint(b, uint64(ev.FenceID))
	b = binary.AppendVarint(b, ev.Cycle)
	b = binary.AppendUvarint(b, uint64(len(ev.Lanes)))
	for i := range ev.Lanes {
		la := &ev.Lanes[i]
		b = binary.AppendVarint(b, int64(la.Lane))
		b = binary.AppendVarint(b, int64(la.Tid))
		b = binary.AppendVarint(b, int64(la.GTid))
		b = binary.AppendUvarint(b, la.Addr)
		b = append(b, la.Size)
		b = binary.AppendUvarint(b, uint64(la.AtomicSig))
		b = appendBool(b, la.InCrit)
		b = appendBool(b, la.L1Hit)
		b = binary.AppendVarint(b, la.L1Fill)
		b = binary.AppendVarint(b, la.Arrival)
	}
	return b
}

// --- decoding ---

// decoder walks a record payload with bounds-checked reads; any
// overrun surfaces as an error, never a panic. After the first error
// every read is garbage or zero, but none panics or reads past b.
type decoder struct {
	b   []byte
	i   int // read offset in b
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("journal: truncated %s", what)
	}
}

// rest is what the decoder has not read yet.
func (d *decoder) rest() []byte { return d.b[d.i:] }

// uvarint reads a varint. A one-byte value, most of a lane's fields,
// skips binary.Uvarint's loop.
func (d *decoder) uvarint(what string) uint64 {
	if d.i < len(d.b) && d.b[d.i] < 0x80 {
		d.i++
		return uint64(d.b[d.i-1])
	}
	return d.uvarintLong(what)
}

func (d *decoder) uvarintLong(what string) uint64 {
	v, n := binary.Uvarint(d.rest())
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.i += n
	return v
}

// varint reads a zig-zag signed varint, as binary.Varint does, with
// uvarint's shortcut repeated here: half a replay's decode time is
// lane fields, and this saves a call on each signed one.
func (d *decoder) varint(what string) int64 {
	var u uint64
	if d.i < len(d.b) && d.b[d.i] < 0x80 {
		u = uint64(d.b[d.i])
		d.i++
	} else {
		u = d.uvarintLong(what)
	}
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) byteVal(what string) byte {
	if d.i < len(d.b) {
		d.i++
		return d.b[d.i-1]
	}
	d.fail(what)
	return 0
}

func (d *decoder) boolVal(what string) bool { return d.byteVal(what) != 0 }

// bytes reads a length-prefixed field. The length's label is built
// only on failure: concatenating it up front cost an allocation per
// string field.
func (d *decoder) bytes(what string) []byte {
	n, k := binary.Uvarint(d.rest())
	if k <= 0 {
		d.fail(what + " length")
		return nil
	}
	if n > uint64(len(d.b)-d.i-k) {
		d.fail(what)
		return nil
	}
	d.i += k
	v := d.b[d.i : d.i+int(n)]
	d.i += int(n)
	return v
}

func (d *decoder) stringVal(what string) string { return string(d.bytes(what)) }

// maxNames bounds a recordDecoder's interned names. A real journal
// holds a few dozen (its kernels and annotated statements); a corrupt
// or hostile one past the bound still decodes, allocating its names.
const maxNames = 1 << 12

// recordDecoder decodes record payloads into storage it reuses: one
// Record and one WarpMemEvent, whose Lanes share a lane array that
// grows to the widest warp seen, with kernel and statement names
// interned. The record Decode returns, and its event, are valid until
// the next decode, the borrowed-event contract of gpu.WarpMemEvent;
// what a record owns outright (Meta, Env, Race, Verdict) is freshly
// allocated.
type recordDecoder struct {
	rec   Record
	ev    gpu.WarpMemEvent
	lanes []gpu.LaneAccess
	names map[string]string
}

// name returns b as a string, interned.
func (dc *recordDecoder) name(b []byte) string {
	if s, ok := dc.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if dc.names == nil {
		dc.names = map[string]string{}
	}
	if len(dc.names) < maxNames {
		dc.names[s] = s
	}
	return s
}

// decode parses one record payload into the decoder's storage.
func (dc *recordDecoder) decode(payload []byte) (*Record, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("journal: empty record")
	}
	rec := &dc.rec
	*rec = Record{Type: RecType(payload[0])}
	d := decoder{b: payload, i: 1}
	switch rec.Type {
	case RecMeta:
		js := d.bytes("meta json")
		if d.err == nil {
			rec.Meta = &Meta{}
			if err := json.Unmarshal(js, rec.Meta); err != nil {
				return nil, fmt.Errorf("journal: meta: %w", err)
			}
		}
	case RecKernelStart:
		rec.Kernel = dc.name(d.bytes("kernel name"))
		js := d.bytes("env snapshot json")
		if d.err == nil {
			rec.Env = &EnvSnapshot{}
			if err := json.Unmarshal(js, rec.Env); err != nil {
				return nil, fmt.Errorf("journal: env snapshot: %w", err)
			}
		}
	case RecKernelEnd:
		rec.Kernel = dc.name(d.bytes("kernel name"))
	case RecBlockStart:
		rec.SM = int(d.varint("sm"))
		rec.SharedBase = int(d.varint("shared base"))
		rec.SharedSize = int(d.varint("shared size"))
	case RecBarrier:
		rec.SM = int(d.varint("sm"))
		rec.Block = int(d.varint("block"))
		rec.SharedBase = int(d.varint("shared base"))
		rec.SharedSize = int(d.varint("shared size"))
		rec.Cycle = d.varint("cycle")
	case RecWarpMem:
		rec.Ev = dc.warpMem(&d)
	case RecFence:
		rec.Block = int(d.varint("block"))
		rec.Warp = int(d.varint("warp"))
		rec.FenceID = uint32(d.uvarint("fence id"))
	case RecRace:
		rec.Cycle = d.varint("cycle")
		rec.Race = d.stringVal("race")
	case RecVerdict:
		n := d.uvarint("verdict count")
		if n > uint64(len(d.rest())) { // each entry needs >= 1 byte
			d.fail("verdict count")
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			rec.Verdict = append(rec.Verdict, d.stringVal("verdict entry"))
		}
	default:
		return nil, fmt.Errorf("journal: unknown record type %d", payload[0])
	}
	if d.err != nil {
		return nil, d.err
	}
	if n := len(d.rest()); n != 0 {
		return nil, fmt.Errorf("journal: %d trailing bytes after %v record", n, rec.Type)
	}
	return rec, nil
}

// warpMem decodes a warp memory event into the decoder's event,
// overwriting every field, since a detector may have scribbled on the
// event it borrowed.
func (dc *recordDecoder) warpMem(d *decoder) *gpu.WarpMemEvent {
	ev := &dc.ev
	*ev = gpu.WarpMemEvent{Space: isa.Space(d.byteVal("space"))}
	flags := d.byteVal("flags")
	ev.Write = flags&1 != 0
	ev.Atomic = flags&2 != 0
	ev.PC = int(d.varint("pc"))
	ev.SM = int(d.varint("sm"))
	ev.Block = int(d.varint("block"))
	ev.WarpInBlock = int(d.varint("warp"))
	ev.Kernel = dc.name(d.bytes("kernel"))
	ev.Stmt = dc.name(d.bytes("stmt"))
	ev.SyncID = uint32(d.uvarint("sync id"))
	ev.FenceID = uint32(d.uvarint("fence id"))
	ev.Cycle = d.varint("cycle")
	n := d.uvarint("lane count")
	// Each lane occupies at least 10 bytes; a corrupt count cannot
	// force a large allocation past this check.
	if n > uint64(len(d.rest()))/10 {
		d.fail("lane count")
		return ev
	}
	if uint64(cap(dc.lanes)) < n {
		dc.lanes = make([]gpu.LaneAccess, n)
	}
	lanes := dc.lanes[:n]
	for i := range lanes {
		la := &lanes[i]
		la.Lane = int(d.varint("lane"))
		la.Tid = int(d.varint("tid"))
		la.GTid = int(d.varint("gtid"))
		la.Addr = d.uvarint("addr")
		la.Size = d.byteVal("size")
		la.AtomicSig = bloom.Sig(d.uvarint("sig"))
		la.InCrit = d.boolVal("in-crit")
		la.L1Hit = d.boolVal("l1-hit")
		la.L1Fill = d.varint("l1-fill")
		la.Arrival = d.varint("arrival")
	}
	ev.Lanes = lanes
	return ev
}
