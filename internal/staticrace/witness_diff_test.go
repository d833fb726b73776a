package staticrace_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/isa"
	"haccrg/internal/kernels"
	"haccrg/internal/staticrace"
)

// witnessConf mirrors the full detector default configuration,
// including warp-awareness — a witness must only claim races the
// dynamic detector would actually report.
func witnessConf() staticrace.Config {
	conf := detectorConf()
	conf.WarpAware = core.DefaultOptions().WarpAware
	return conf
}

// TestWitnessDifferentialSoundness is the witness prover's soundness
// sweep: over a randomized corpus, (a) the checker never reports a
// proof/witness conflict, (b) nothing unverified ships, (c) no race
// witness lands on a pc the prover simultaneously filters, and (d)
// every verified global race witness is reproduced by the dynamic
// detector — a race on the same (space, granule) — on an unfiltered,
// uncapped run.
func TestWitnessDifferentialSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	conf := witnessConf()
	analyzed, witnessed := 0, 0
	for n := 0; n < 60; n++ {
		data := make([]byte, 40+rng.Intn(60))
		rng.Read(data)
		k := genKernel(fmt.Sprintf("wdiff%03d", n), data)
		if k == nil {
			continue
		}
		f, err := staticrace.NewFilter(conf, k)
		if err != nil {
			t.Fatalf("sample %d: analysis failed: %v\n%s", n, err, k.Prog.Disassemble())
		}
		analyzed++
		a := f.Analyses()[0]
		if a.Conflicts != 0 {
			t.Errorf("sample %d: %d race-free proofs coexist with witnesses\n%s",
				n, a.Conflicts, k.Prog.Disassemble())
		}
		mask := f.FilterSites(k.Name)
		var raceWits []staticrace.Witness
		for _, w := range a.Witnesses {
			if !w.Verified {
				t.Errorf("sample %d: unverified %s witness shipped (pc %d)\n%s",
					n, w.Kind, w.PC, k.Prog.Disassemble())
			}
			if w.Kind != staticrace.WitnessRace {
				continue
			}
			raceWits = append(raceWits, w)
			for _, pc := range []int{w.PC, w.PC2} {
				if pc >= 0 && pc < len(mask) && mask[pc] {
					t.Errorf("sample %d: race witness at pc %d on a site the filter skips\n%s",
						n, pc, k.Prog.Disassemble())
				}
			}
		}
		if len(raceWits) == 0 {
			continue
		}
		witnessed++
		det := launchWithDetector(t, k, nil)
		dyn := map[string]bool{}
		for _, r := range det.SortedRaces() {
			dyn[fmt.Sprintf("%s/g%d", r.Space, r.Granule)] = true
		}
		for _, w := range raceWits {
			if w.Space != isa.SpaceGlobal.String() {
				continue
			}
			if key := fmt.Sprintf("%s/g%d", w.Space, w.Granule); !dyn[key] {
				t.Errorf("sample %d: witness %s (class %s, pc %d/%d, threads (b%d,t%d)/(b%d,t%d)) not reproduced dynamically\n%s",
					n, key, w.Class, w.PC, w.PC2, w.Block, w.Tid, w.Block2, w.Tid2,
					k.Prog.Disassemble())
			}
		}
	}
	if analyzed < 30 {
		t.Fatalf("only %d samples survived generation; corpus too thin", analyzed)
	}
	if witnessed == 0 {
		t.Fatal("no random sample produced a race witness; the differential oracle never bit")
	}
	t.Logf("%d samples analyzed, %d carried race witnesses", analyzed, witnessed)
}

// seedAdapter exposes a Filter's verified race witnesses as detector
// seeds, mirroring the harness wiring.
type seedAdapter struct{ f *staticrace.Filter }

func (s seedAdapter) WitnessSeeds(kernel string) []core.SeedWitness {
	var out []core.SeedWitness
	for _, w := range s.f.RaceSeeds(kernel) {
		out = append(out, core.SeedWitness{
			Space: isa.SpaceGlobal, Granule: w.Granule, Class: w.Class,
			PC: w.PC, PC2: w.PC2,
			Block: w.Block, Tid: w.Tid, Block2: w.Block2, Tid2: w.Tid2,
		})
	}
	return out
}

// provSummary renders races including provenance for exact comparison.
func provSummary(races []*core.Race) string {
	var sb strings.Builder
	for _, r := range races {
		fmt.Fprintf(&sb, "%s/%s/%s/pc%d/g%d/%d-%d x%d prov=%q\n",
			r.Space, r.Kind, r.Category, r.PC, r.Granule, r.FirstTid, r.SecondTid, r.Count, r.Provenance)
	}
	return sb.String()
}

// runSeeded launches a plan's kernels in order under one detector
// seeded from f, with f as its static filter too when filtered, and
// returns the provenance-tagged findings summary.
func runSeeded(t *testing.T, plan *kernels.Plan, f *staticrace.Filter, filtered bool) (string, []*core.Race) {
	t.Helper()
	det := core.MustNew(core.DefaultOptions())
	det.SetWitnessSeeds(seedAdapter{f})
	if filtered {
		det.SetStaticFilter(f)
	}
	dev, err := gpu.NewDevice(gpu.TestConfig(), 1<<20, det)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range plan.Kernels {
		if _, err := dev.LaunchContext(context.Background(), k, gpu.LaunchLimits{MaxCycles: 50_000_000}); err != nil {
			t.Fatalf("launch %s: %v", k.Name, err)
		}
	}
	races := det.SortedRaces()
	return provSummary(races), races
}

// TestWitnessSeededFindingsIdentical: pre-seeding the RDU with static
// witnesses must report every seeded granule with StaticWitness
// provenance on first touch, and the findings — seeds included — must
// stay byte-identical with the static filter attached (seeds fire
// before any check is filtered).
func TestWitnessSeededFindingsIdentical(t *testing.T) {
	plan := planFor(t, "scan", kernels.Params{})
	f, err := staticrace.NewFilter(witnessConf(), plan.Kernels...)
	if err != nil {
		t.Fatal(err)
	}
	seeds := 0
	for _, k := range plan.Kernels {
		seeds += len(f.RaceSeeds(k.Name))
	}
	if seeds == 0 {
		t.Fatal("scan produced no verified race seeds; the seeding path is untested")
	}

	base, races := runSeeded(t, plan, f, false)
	seeded := 0
	for _, r := range races {
		if r.Provenance == "StaticWitness" {
			seeded++
		}
	}
	if seeded == 0 {
		t.Fatalf("no finding carries StaticWitness provenance; seeds never fired\n%s", base)
	}

	got, _ := runSeeded(t, plan, f, true)
	if got != base {
		t.Errorf("filtered run diverged from unfiltered seeded findings\ngot:\n%s\nwant:\n%s", got, base)
	}
	t.Logf("%d seeds, %d seeded findings, identical with the filter attached", seeds, seeded)
}
