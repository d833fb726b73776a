package staticrace

import (
	"testing"

	"haccrg/internal/isa"
)

// ruleGroup lays out a hand-built replay as a granule table and
// returns the first granule's accesses as the witness engine sees them.
func ruleGroup(t *testing.T, sc *ruleScratch, rr *replayResult, space isa.Space, gran int) ([]gacc, uint64) {
	t.Helper()
	a := &analyzer{}
	tab := a.granuleTable(rr, space, gran)
	if len(tab) == 0 {
		t.Fatal("empty granule table")
	}
	return sc.group(rr, tab[:keyRun(tab, 0)]), tab[0].key
}

// write4 is a plain 4-byte write at pc in barrier epoch bar.
func write4(pc, bar int32, addr uint64) raccess {
	return raccess{addr: addr, pc: pc, bar: bar, size: 4, flags: raWrite}
}

// shared marks accesses as shared-space.
func shared(acc ...raccess) []raccess {
	for i := range acc {
		acc[i].flags |= raShared
	}
	return acc
}

// TestGranuleRulesOrder: the rules see a granule's accesses in
// (block, tid, pc, addr) order and its epochs in ascending barrier
// order, whatever order the threads executed them in, so the first
// qualifying pair — the witness that ships — does not depend on
// execution order.
func TestGranuleRulesOrder(t *testing.T) {
	var sc ruleScratch
	// Block 0's thread runs pc 20 before pc 10 (a loop body); both hit
	// the 16-byte granule 0 that block 1 also writes.
	rr := &replayResult{threads: []rthread{
		{bid: 0, tid: 0, acc: []raccess{write4(20, 0, 8), write4(10, 0, 4)}},
		{bid: 1, tid: 0, acc: []raccess{write4(12, 0, 4)}},
	}}
	accs, key := ruleGroup(t, &sc, rr, isa.SpaceGlobal, 16)
	if accs[0].pc != 10 || accs[1].pc != 20 || accs[2].bid != 1 {
		t.Fatalf("group order = %+v, want (b0,pc10), (b0,pc20), (b1,pc12)", accs)
	}
	wit := sc.raceWitness("k", isa.SpaceGlobal, key, accs, false, 32, 16)
	if wit == nil || wit.Class != ClassCrossBlockWAW || wit.PC != 10 || wit.Addr != 4 || wit.PC2 != 12 || wit.Block2 != 1 {
		t.Fatalf("witness = %+v, want cross-block pc 10 (addr 4) / pc 12 (block 1)", wit)
	}

	// Two warps of one block race in shared epochs 0 and 1; the pair of
	// the earlier epoch ships although pc order meets epoch 1 first.
	rr = &replayResult{threads: []rthread{
		{bid: 0, tid: 0, acc: shared(write4(9, 0, 0), write4(3, 1, 0))},
		{bid: 0, tid: 32, acc: shared(write4(8, 0, 4), write4(2, 1, 4))},
	}}
	accs, key = ruleGroup(t, &sc, rr, isa.SpaceShared, 16)
	wit = sc.raceWitness("k", isa.SpaceShared, key, accs, true, 32, 16)
	if wit == nil || wit.Class != ClassSharedEpoch || wit.PC != 9 || wit.PC2 != 8 {
		t.Fatalf("witness = %+v, want the epoch-0 pair pc 9 / pc 8", wit)
	}
	if sc.quietGranule(accs, isa.SpaceShared, true, true, 32) {
		t.Error("two warps writing one shared granule within an epoch judged quiet")
	}
}

// TestQuietGranuleInjectivity: a warp-confined granule is quiet under
// WarpAware only while no two lanes of one instruction write one
// address, and epochs split by barrier count are judged separately.
func TestQuietGranuleInjectivity(t *testing.T) {
	var sc ruleScratch
	cases := []struct {
		name    string
		threads []rthread
		quiet   bool
	}{
		{"distinct addresses", []rthread{
			{tid: 0, acc: shared(write4(5, 0, 0))},
			{tid: 1, acc: shared(write4(5, 0, 4))},
		}, true},
		{"two lanes, one address", []rthread{
			{tid: 0, acc: shared(write4(5, 0, 0))},
			{tid: 1, acc: shared(write4(5, 0, 0))},
		}, false},
		{"two warps, one epoch", []rthread{
			{tid: 0, acc: shared(write4(5, 0, 0))},
			{tid: 32, acc: shared(write4(6, 0, 4))},
		}, false},
		{"two warps, two epochs", []rthread{
			{tid: 0, acc: shared(write4(5, 0, 0))},
			{tid: 32, acc: shared(write4(6, 1, 4))},
		}, true},
	}
	for _, c := range cases {
		rr := &replayResult{threads: c.threads}
		accs, _ := ruleGroup(t, &sc, rr, isa.SpaceShared, 16)
		if got := sc.quietGranule(accs, isa.SpaceShared, true, true, 32); got != c.quiet {
			t.Errorf("%s: quiet = %v, want %v", c.name, got, c.quiet)
		}
	}
}
