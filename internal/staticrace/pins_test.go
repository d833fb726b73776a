package staticrace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"haccrg/internal/gpu"
	"haccrg/internal/kernels"
	"haccrg/internal/staticrace"
)

// analysisCorpusSHA256 pins every analyzer output (site classes, lint
// findings, filter masks, witnesses and their order, conflict and drop
// counts) over the defective fixtures plus a seeded corpus of random
// programs, under two configurations. Refactors of the analyzer's
// working data must leave it unchanged.
const analysisCorpusSHA256 = "e5dd58b17c618a7c38f10e2afa2db8fe4fd70178a57ba629b5e26d3a09281011"

// TestAnalysisPins pins the analyzer's outputs byte for byte:
//
//   - testdata/lint-all-sites.json holds what `haccrg lint -all -json
//     -sites` prints (Table I device, scale 1, 16 B shared / 4 B global
//     granularity, warp-aware) — the shipped report of the clean suite;
//   - analysisCorpusSHA256 covers the fields the report omits (the
//     typed site class, the Filterable mask) over the three defective
//     fixtures and 200 seeded random programs, under 16/4 warp-aware
//     and 4/4 warp-unaware configurations.
func TestAnalysisPins(t *testing.T) {
	t.Run("lint-all-sites", func(t *testing.T) {
		want, err := os.ReadFile(filepath.Join("testdata", "lint-all-sites.json"))
		if err != nil {
			t.Fatal(err)
		}
		cfg := gpu.DefaultConfig()
		conf := staticrace.Config{
			WarpSize: cfg.WarpSize, SharedGranularity: 16, GlobalGranularity: 4, WarpAware: true,
		}
		var analyses []*staticrace.Analysis
		for _, bm := range kernels.All() {
			dev, err := gpu.NewDevice(cfg, bm.GlobalBytes(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := bm.Build(dev, kernels.Params{Scale: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range plan.Kernels {
				res, err := staticrace.Analyze(k, conf)
				if err != nil {
					t.Fatalf("kernel %s: %v", k.Name, err)
				}
				analyses = append(analyses, res)
			}
		}
		got := []byte(staticrace.BuildReport(analyses, true).JSON() + "\n")
		if !bytes.Equal(got, want) {
			t.Errorf("lint report drifted from testdata/lint-all-sites.json (%d vs %d bytes)", len(got), len(want))
		}
	})

	t.Run("corpus", func(t *testing.T) {
		var ks []*gpu.Kernel
		for _, bm := range kernels.AllIncludingDefective() {
			if bm.Defective {
				ks = append(ks, planFor(t, bm.Name, kernels.Params{}).Kernels...)
			}
		}
		rng := rand.New(rand.NewSource(20260))
		for n := 0; n < 200; n++ {
			data := make([]byte, 40+rng.Intn(60))
			rng.Read(data)
			if k := genKernel(fmt.Sprintf("pin%03d", n), data); k != nil {
				ks = append(ks, k)
			}
		}
		confs := []staticrace.Config{
			{WarpSize: 32, SharedGranularity: 16, GlobalGranularity: 4, WarpAware: true},
			{WarpSize: 32, SharedGranularity: 4, GlobalGranularity: 4},
		}
		h := sha256.New()
		for _, conf := range confs {
			for _, k := range ks {
				res, err := staticrace.Analyze(k, conf)
				if err != nil {
					t.Fatalf("kernel %s: %v", k.Name, err)
				}
				hashAnalysis(h, res)
			}
		}
		got := hex.EncodeToString(h.Sum(nil))
		t.Logf("%d kernels × %d configs", len(ks), len(confs))
		if got != analysisCorpusSHA256 {
			t.Errorf("analysis corpus digest = %s, want %s", got, analysisCorpusSHA256)
		}
	})
}

// hashAnalysis feeds every output field of one analysis into h.
func hashAnalysis(h hash.Hash, res *staticrace.Analysis) {
	fmt.Fprintf(h, "kernel %s conflicts %d dropped %d\n", res.Kernel, res.Conflicts, res.WitnessDropped)
	for _, s := range res.Sites {
		fmt.Fprintf(h, "site %d %s %s class %d %s granules %d dead %t\n",
			s.PC, s.Space, s.Op, s.Class, s.ClassStr, s.Granules, s.Dead)
	}
	for _, f := range res.Findings {
		fmt.Fprintf(h, "finding %+v\n", f)
	}
	fmt.Fprint(h, "filterable ")
	for _, ok := range res.Filterable {
		if ok {
			h.Write([]byte{'1'})
		} else {
			h.Write([]byte{'0'})
		}
	}
	h.Write([]byte{'\n'})
	for _, w := range res.Witnesses {
		fmt.Fprintf(h, "witness %+v\n", w)
	}
}
