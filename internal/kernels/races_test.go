package kernels

import (
	"testing"

	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// detectOptions mirrors the paper's effectiveness evaluation: both
// RDUs on, word (4-byte) tracking granularity in both spaces.
func detectOptions() core.Options {
	opt := core.DefaultOptions()
	opt.SharedGranularity = 4
	return opt
}

// runWithDetector builds and runs one benchmark under a fresh HAccRG
// detector and returns it.
func runWithDetector(t *testing.T, name string, p Params, opt core.Options) *core.Detector {
	t.Helper()
	bm := Get(name)
	if bm == nil {
		t.Fatalf("unknown benchmark %s", name)
	}
	det := core.MustNew(opt)
	dev, err := gpu.NewDevice(gpu.TestConfig(), bm.GlobalBytes(p.Scale), det)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := bm.Build(dev, p)
	if err != nil {
		t.Fatalf("%s build: %v", name, err)
	}
	if _, err := plan.Run(dev); err != nil {
		t.Fatalf("%s run: %v", name, err)
	}
	return det
}

// TestRealRaces reproduces Section VI-A's effectiveness result: no
// shared-memory races anywhere; global-memory races exactly in SCAN,
// KMEANS (single-block kernels launched multi-block) and OFFT (the
// address-calculation bug); the other seven benchmarks clean.
func TestRealRaces(t *testing.T) {
	buggy := map[string]bool{"scan": true, "kmeans": true, "offt": true}
	for _, bm := range All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			det := runWithDetector(t, bm.Name, Params{Scale: 1}, detectOptions())
			shared := det.SiteCount(isa.SpaceShared)
			global := det.SiteCount(isa.SpaceGlobal)
			if shared != 0 {
				t.Errorf("%s: %d shared race sites, want 0 (races: %v)",
					bm.Name, shared, firstRaces(det, 3))
			}
			if buggy[bm.Name] && global == 0 {
				t.Errorf("%s: documented bug not detected", bm.Name)
			}
			if !buggy[bm.Name] && global != 0 {
				t.Errorf("%s: %d unexpected global race sites (races: %v)",
					bm.Name, global, firstRaces(det, 3))
			}
		})
	}
}

func firstRaces(det *core.Detector, n int) []*core.Race {
	rs := det.Races()
	if len(rs) > n {
		rs = rs[:n]
	}
	return rs
}

// TestDesignedForSingleBlockIsClean verifies the paper's control: "no
// data race is reported when both SCAN and KMEANS are executed with a
// single thread-block".
func TestDesignedForSingleBlockIsClean(t *testing.T) {
	for _, name := range []string{"scan", "kmeans"} {
		p := Params{Scale: 1}
		p.SingleBlock = true
		det := runWithDetector(t, name, p, detectOptions())
		if n := len(det.Races()); n != 0 {
			t.Errorf("%s single-block: %d races, want 0 (first: %v)",
				name, n, firstRaces(det, 3))
		}
	}
}

// TestOFFTRaceIsWAR checks the documented OFFT bug manifests with a
// write-after-read component, as the paper describes.
func TestOFFTRaceIsWAR(t *testing.T) {
	det := runWithDetector(t, "offt", Params{Scale: 1}, detectOptions())
	for _, r := range det.Races() {
		if r.Kind == core.KindWAR || r.Kind == core.KindWAW {
			return
		}
	}
	t.Fatalf("offt: no WAR/WAW among %v", det.Races())
}

// TestSiteInventory verifies the paper's 41 injection sites:
// 23 removable barriers, 13 cross-block dummies, 3 removable fences,
// 2 critical-section dummies.
func TestSiteInventory(t *testing.T) {
	var sites []Site
	counts := map[InjectKind]int{}
	for _, b := range All() {
		for _, s := range b.Sites {
			sites = append(sites, s)
			counts[s.Kind]++
		}
	}
	want := map[InjectKind]int{
		InjRemoveBarrier: 23,
		InjDummyCross:    13,
		InjRemoveFence:   3,
		InjDummyCritical: 2,
	}
	total := 0
	for kind, n := range want {
		if counts[kind] != n {
			t.Errorf("%v sites = %d, want %d", kind, counts[kind], n)
		}
		total += n
	}
	if got := len(sites); got != total {
		t.Errorf("total sites = %d, want %d", got, total)
	}
	seen := map[string]bool{}
	for _, s := range sites {
		if seen[s.ID] {
			t.Errorf("duplicate site id %s", s.ID)
		}
		seen[s.ID] = true
		if s.Desc == "" {
			t.Errorf("site %s has no description", s.ID)
		}
	}
}

// TestInjectedRaces41 reproduces the paper's injection study: HAccRG
// detects every one of the 41 injected races. Each site is injected
// alone; detection means the run exposes races beyond the benchmark's
// baseline — a larger set of race sites or a new (space, kind,
// category) group.
func TestInjectedRaces41(t *testing.T) {
	// Following the paper's method, races are injected into runs that
	// do not already race: SCAN and KMEANS use their designed-for
	// single-block launches. OFFT keeps its real bug; injections must
	// still stand out against it.
	cleanParams := func(name string) Params {
		p := Params{Scale: 1}
		if name == "scan" || name == "kmeans" {
			p.SingleBlock = true
		}
		return p
	}
	type baselineInfo struct {
		sites  int
		groups map[string]int
	}
	baselines := map[string]baselineInfo{}
	for _, bm := range All() {
		det := runWithDetector(t, bm.Name, cleanParams(bm.Name), detectOptions())
		baselines[bm.Name] = baselineInfo{
			sites:  det.SiteCount(isa.SpaceShared) + det.SiteCount(isa.SpaceGlobal),
			groups: det.RaceGroups(),
		}
	}

	detected := 0
	for _, bm := range All() {
		for _, site := range bm.Sites {
			site := site
			t.Run(site.ID, func(t *testing.T) {
				p := cleanParams(bm.Name)
				p.Inject = map[string]bool{site.ID: true}
				det := runWithDetector(t, bm.Name, p, detectOptions())
				base := baselines[bm.Name]
				sites := det.SiteCount(isa.SpaceShared) + det.SiteCount(isa.SpaceGlobal)
				newGroup := false
				for g := range det.RaceGroups() {
					if base.groups[g] == 0 {
						newGroup = true
					}
				}
				if sites <= base.sites && !newGroup {
					t.Errorf("injection %s (%v) not detected: %d sites vs baseline %d, groups %v vs %v",
						site.ID, site.Kind, sites, base.sites, det.RaceGroups(), base.groups)
					return
				}
				detected++
			})
		}
	}
	if !t.Failed() && detected != 41 {
		t.Errorf("detected %d injected races, want 41", detected)
	}
}
