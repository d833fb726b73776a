package noc

import "testing"

func TestLatency(t *testing.T) {
	n := New(Config{LatencyCycles: 20, FlitBytes: 32, FlitsPerCycle: 1, MetaBytesBase: 8}, 4)
	if got := n.Send(0, 0, 0); got != 21 {
		t.Errorf("single-flit send arrives at %d, want 21", got)
	}
}

func TestPortContention(t *testing.T) {
	n := New(Config{LatencyCycles: 10, FlitBytes: 32, FlitsPerCycle: 1, MetaBytesBase: 8}, 2)
	a := n.Send(0, 100, 0)
	b := n.Send(0, 100, 0) // same port, same cycle: serialized
	c := n.Send(1, 100, 0) // different port: unaffected
	if b != a+1 {
		t.Errorf("contended sends: %d then %d, want 1 apart", a, b)
	}
	if c != a {
		t.Errorf("independent port delayed: %d vs %d", c, a)
	}
}

func TestReplyIndependentOfSend(t *testing.T) {
	n := New(DefaultConfig, 2)
	n.Send(0, 0, 0)
	r := n.Reply(0, 0, 128)
	// A 128B payload + 8B header = 136B -> 5 flits of 32B.
	want := int64(5) + DefaultConfig.LatencyCycles
	if r != want {
		t.Errorf("reply arrives at %d, want %d", r, want)
	}
}

func TestRDUMetadataGrowsPackets(t *testing.T) {
	cfg := Config{LatencyCycles: 0, FlitBytes: 8, FlitsPerCycle: 1, MetaBytesBase: 8, MetaBytesRDU: 4}
	plain := New(cfg, 1)
	cfg.RDUMetaEnabled = true
	rdu := New(cfg, 1)
	plain.Send(0, 0, 0)
	rdu.Send(0, 0, 0)
	if rdu.FlitCount <= plain.FlitCount {
		t.Errorf("RDU metadata should add flits: %d vs %d", rdu.FlitCount, plain.FlitCount)
	}
}

func TestResetStats(t *testing.T) {
	n := New(DefaultConfig, 1)
	n.Send(0, 0, 64)
	// 64 payload bytes plus the 8-byte header fill three 32-byte flits.
	if n.FlitCount != 3 {
		t.Fatalf("counters not tracking: %d flits", n.FlitCount)
	}
	n.ResetStats()
	if n.FlitCount != 0 {
		t.Error("ResetStats left counters")
	}
}
