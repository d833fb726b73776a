package gpu

import "testing"

// TestIdleSMsStayUnbuilt: on TestConfig's four SMs, a two-block launch
// builds the two SMs its blocks reach and no other. An idle SM has no
// L1, shared tile, MSHRs or instruction scratch, and a built SM's tile
// is backed only to the end of its blocks' windows.
func TestIdleSMsStayUnbuilt(t *testing.T) {
	d := testDevice(t, 1<<16)
	in, out := d.MustMalloc(256*4), d.MustMalloc(256*4)
	k := vecAddKernel(2, 32, in, out)
	k.SharedBytes = 256
	if _, err := d.Launch(k); err != nil {
		t.Fatal(err)
	}
	for i, s := range d.sms {
		if i < 2 {
			if !s.built() {
				t.Errorf("SM %d hosted a block but is unbuilt", i)
			} else if n := s.shared.Mem.Size(); n != 256 {
				t.Errorf("SM %d backs %d tile bytes, want its one block's 256", i, n)
			}
			continue
		}
		if s.l1 != nil || s.shared != nil || s.mshr != nil || s.ev.Lanes != nil ||
			s.addrs != nil || s.flat != nil || s.lines != nil || s.lstate != nil {
			t.Errorf("idle SM %d holds an L1, tile, MSHR map or scratch", i)
		}
	}

	// Six blocks fill slot 0 of every SM and slot 1 of SMs 0 and 1.
	k.GridDim = 6
	if _, err := d.Launch(k); err != nil {
		t.Fatal(err)
	}
	for i, s := range d.sms {
		want := 256
		if i < 2 {
			want = 512
		}
		if !s.built() {
			t.Errorf("SM %d hosted a block but is unbuilt", i)
		} else if n := s.shared.Mem.Size(); n != want {
			t.Errorf("SM %d backs %d tile bytes, want %d", i, n, want)
		}
	}
}
