package kernels

// Detector transparency: race detection observes execution but must
// never change functional results — the paper's RDUs "do not alter
// memory accesses originated from the cores". Every benchmark with a
// host reference must verify identically under every detector
// configuration, and the final device-memory image must match the
// detection-off run bit for bit.

import (
	"bytes"
	"testing"

	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/grace"
	"haccrg/internal/swdetect"
)

// runImage executes a benchmark under det and returns the final global
// memory image.
func runImage(t *testing.T, name string, det gpu.Detector) []byte {
	t.Helper()
	bm := Get(name)
	dev, err := gpu.NewDevice(gpu.TestConfig(), bm.GlobalBytes(1), det)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Scale: 1}
	if name == "scan" || name == "kmeans" {
		p.SingleBlock = true
	}
	plan, err := bm.Build(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Run(dev); err != nil {
		t.Fatal(err)
	}
	if plan.Verify != nil {
		if err := plan.Verify(dev); err != nil {
			t.Fatalf("%s under %s: output corrupted: %v", name, det.Name(), err)
		}
	}
	img := make([]byte, dev.Global.Size())
	copy(img, dev.Global.Bytes())
	return img
}

func detectors(t *testing.T) map[string]func() gpu.Detector {
	t.Helper()
	opt := core.DefaultOptions()
	opt.SharedGranularity = 4
	fig8 := opt
	fig8.SharedShadowInGlobal = true
	return map[string]func() gpu.Detector{
		"off":    func() gpu.Detector { return gpu.NopDetector{} },
		"haccrg": func() gpu.Detector { return core.MustNew(opt) },
		"fig8":   func() gpu.Detector { return core.MustNew(fig8) },
		"swimpl": func() gpu.Detector {
			d, err := swdetect.New(opt)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"graceim": func() gpu.Detector {
			d, err := grace.New(opt)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
}

func TestDetectorsAreFunctionallyTransparent(t *testing.T) {
	for _, bm := range All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			if bm.Name == "offt" {
				// OFFT races by design (its documented bug): the wrap
				// entries' final values depend on access interleaving,
				// and detectors legitimately shift timing. A divergent
				// image here is the race *manifesting*, not a detector
				// defect — exactly why the bug matters.
				t.Skip("output is race-dependent by design")
			}
			var baseline []byte
			for _, name := range []string{"off", "haccrg", "fig8", "swimpl", "graceim"} {
				img := runImage(t, bm.Name, detectors(t)[name]())
				if baseline == nil {
					baseline = img
					continue
				}
				if !bytes.Equal(baseline, img) {
					t.Fatalf("%s: detector %q changed the final memory image", bm.Name, name)
				}
			}
		})
	}
}

// TestRacyOutputIsScheduleDependent pins down why OFFT is excluded
// above: its final image is a function of timing, which is the
// observable consequence of the data race the detector reports.
func TestRacyOutputIsScheduleDependent(t *testing.T) {
	off := runImage(t, "offt", gpu.NopDetector{})
	opt := core.DefaultOptions()
	opt.SharedGranularity = 4
	under := runImage(t, "offt", core.MustNew(opt))
	if bytes.Equal(off, under) {
		t.Log("note: offt produced identical images under both schedules this run")
	}
}
