package journal

import (
	"reflect"
	"testing"

	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// DecodeRecord parses one record payload into a record it owns: the
// reference replay's, the fuzzer's and the record tests' decoder.
// Corrupt bytes yield an error, never a panic or unbounded allocation.
func DecodeRecord(payload []byte) (*Record, error) {
	var dc recordDecoder
	rec, err := dc.decode(payload)
	if err != nil {
		return nil, err
	}
	out := *rec
	if rec.Ev != nil {
		ev := *rec.Ev
		ev.Lanes = append([]gpu.LaneAccess(nil), rec.Ev.Lanes...)
		out.Ev = &ev
	}
	return &out, nil
}

func sampleEvent() *gpu.WarpMemEvent {
	return &gpu.WarpMemEvent{
		Space: isa.SpaceGlobal, Write: true, PC: 42,
		SM: 3, Block: 17, WarpInBlock: 1,
		Kernel: "reduce", Stmt: "sum[i] += x",
		SyncID: 5, FenceID: 2, Cycle: 987654,
		Lanes: []gpu.LaneAccess{
			{Lane: 0, Tid: 32, GTid: 544, Addr: 0x1004, Size: 4, AtomicSig: 0xdeadbeef,
				InCrit: true, L1Hit: true, L1Fill: 120, Arrival: 991000},
			{Lane: 31, Tid: 63, GTid: 575, Addr: 0x1ffc, Size: 8, Arrival: -1},
		},
	}
}

func sampleRecords() []*Record {
	cfg := gpu.TestConfig()
	return []*Record{
		{Type: RecMeta, Meta: &Meta{
			Bench: "scan", Detector: "shared+global", Scale: 2, SingleBlock: true,
			Inject: []string{"scan.x"}, SharedGranularity: 16, GlobalGranularity: 4,
			FaultPlan: "flip:rate=2e-4", FaultSeed: 42, Degradation: "quarantine",
		}},
		{Type: RecKernelStart, Kernel: "scan-up",
			Env: &EnvSnapshot{Config: cfg, GlobalMemSize: 1 << 20}},
		{Type: RecBlockStart, SM: 2, SharedBase: 1024, SharedSize: 512},
		{Type: RecWarpMem, Ev: sampleEvent()},
		{Type: RecFence, Block: 7, Warp: 3, FenceID: 11},
		{Type: RecBarrier, SM: 1, Block: 4, SharedBase: 0, SharedSize: 256, Cycle: 5000},
		{Type: RecRace, Cycle: 5100, Race: "WAW race (barrier) in scan-up: ..."},
		{Type: RecKernelEnd, Kernel: "scan-up"},
		{Type: RecVerdict, Verdict: []string{"race a", "race b"}},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, want := range sampleRecords() {
		b, err := AppendRecord(nil, want)
		if err != nil {
			t.Fatalf("%v: encode: %v", want.Type, err)
		}
		got, err := DecodeRecord(b)
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v round trip:\n got %+v\nwant %+v", want.Type, got, want)
		}
	}
}

// TestRecordDecodeTruncated cuts every encoded record at every length:
// decode must error cleanly, never panic.
func TestRecordDecodeTruncated(t *testing.T) {
	for _, rec := range sampleRecords() {
		b, err := AppendRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(b); cut++ {
			if got, err := DecodeRecord(b[:cut]); err == nil {
				// A shorter prefix may still decode (e.g. varint
				// boundaries); it must at least be internally valid.
				if got == nil {
					t.Fatalf("%v cut %d: nil record with nil error", rec.Type, cut)
				}
			}
		}
	}
}

func TestRecordDecodeRejectsTrailingBytes(t *testing.T) {
	b, err := AppendRecord(nil, &Record{Type: RecKernelEnd, Kernel: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRecord(append(b, 0x00)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestRecordDecodeUnknownType(t *testing.T) {
	if _, err := DecodeRecord([]byte{0xee, 1, 2, 3}); err == nil {
		t.Error("unknown record type accepted")
	}
	if _, err := DecodeRecord(nil); err == nil {
		t.Error("empty record accepted")
	}
}
