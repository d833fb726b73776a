package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitRE)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workload and metric
// lists equal to what the program runs and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
	}
	if !reflect.DeepEqual(ws, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", ws, workloadNames)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, m := range want {
			w = append(w, m.name+" "+m.unit)
		}
		sort.Strings(g)
		sort.Strings(w)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("BENCHMARK.json %s metrics %v, program prints %v", kind, g, w)
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestPinsCoverSuite(t *testing.T) {
	names := benchNames()
	if len(names) != 10 {
		t.Fatalf("suite has %d benchmarks, want the paper's ten", len(names))
	}
	if len(pins) != len(names) {
		t.Errorf("%d pins for %d benchmarks", len(pins), len(names))
	}
	var lanes int64
	for _, n := range names {
		p, ok := pins[n]
		if !ok {
			t.Errorf("no pin for %s", n)
			continue
		}
		if len(p.RaceSHA) != 64 || p.Cycles <= 0 || p.WarpInstrs <= 0 || p.LaneInstrs <= 0 {
			t.Errorf("%s: incomplete pin %+v", n, p)
		}
		if p.Races == 0 && p.RaceSHA != raceSHA(nil) {
			t.Errorf("%s: no races pinned but digest %s", n, p.RaceSHA)
		}
		lanes += p.LaneInstrs
	}
	if lanes != 5923229 {
		t.Errorf("suite simulates %d lane instructions per op, want 5923229", lanes)
	}
}

func perturbed(f func(p *pin)) map[string]pin {
	m := make(map[string]pin, len(pins))
	for k, v := range pins {
		m[k] = v
	}
	p := m["scan"]
	f(&p)
	m["scan"] = p
	return m
}

func smokeConfig(t *testing.T, workload string) config {
	return config{workload: workload, warmup: 1, dataRoot: t.TempDir(), pins: pins, log: io.Discard}
}

func TestPerturbedPinFailsOp(t *testing.T) {
	cfg := smokeConfig(t, suiteDetect)
	cfg.warmup = 0
	cfg.pins = perturbed(func(p *pin) { p.Cycles++ })
	res, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 1 || res.Failed != 1 {
		t.Errorf("op against a perturbed cycles pin: correct=%t attempted=%d failed=%d, want one failed op",
			res.Correct, res.Attempted, res.Failed)
	}
}

func TestCheckRejectsMismatches(t *testing.T) {
	o, err := facadeRun("scan", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRun(pins, o, true); err != nil {
		t.Fatalf("unperturbed pin: %v", err)
	}
	if checkRun(pins, o, false) == nil {
		t.Error("a filtered run passed the unfiltered check")
	}
	for name, f := range map[string]func(*pin){
		"cycles":   func(p *pin) { p.Cycles++ },
		"warp":     func(p *pin) { p.WarpInstrs++ },
		"lanes":    func(p *pin) { p.LaneInstrs++ },
		"races":    func(p *pin) { p.Races++ },
		"digest":   func(p *pin) { p.RaceSHA = raceSHA([]string{"x"}) },
		"filtered": func(p *pin) { p.Filtered++ },
	} {
		if checkRun(perturbed(f), o, true) == nil {
			t.Errorf("perturbed %s pin passed", name)
		}
	}
	no := false
	if checkReplay(pins, outcome{bench: "scan", races: o.races, match: &no}) == nil {
		t.Error("a MISMATCH replay verdict passed")
	}
	yes := true
	if checkReplay(pins, outcome{bench: "scan", races: o.races[1:], match: &yes}) == nil {
		t.Error("a replay verdict missing a race passed")
	}
}

// TestWorkloadSmoke runs one op of every workload, untraced and traced.
func TestWorkloadSmoke(t *testing.T) {
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := smokeConfig(t, w)
			cfg.trace = traced
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s (traced=%t): %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s (traced=%t): correct=%t failed=%d", w, traced, res.Correct, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (traced=%t): %d metrics, want %d", w, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s (traced=%t): metric %s = %+v", w, traced, d.name, m)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
			if traced {
				busy := []string{"core.busy_ms", "core.checks", "kernels.build_ms", "trace.op_ms_p50"}
				switch w {
				case suiteDetect:
					busy = append(busy, "gpu.self_ms", "gpu.sim_cycles", "noc.flits")
				case suiteFilter:
					busy = append(busy, "staticrace.analyze_ms", "staticrace.filtered_frac")
				case replayService:
					busy = append(busy, "journal.decode_ms", "journal.encode_ms", "service.submit_ms", "service.run_ms_p50")
				}
				for _, n := range busy {
					if res.Metrics[n].Value <= 0 {
						t.Errorf("%s traced: %s = %v, want > 0", w, n, res.Metrics[n].Value)
					}
				}
			}
		}
	}
}

// TestTracedRunMatchesFacade: the traced composition reaches the same
// findings, stats and cycles as the facade, with and without the
// static filter, and records byte-identical journals.
func TestTracedRunMatchesFacade(t *testing.T) {
	ctx := context.Background()
	for _, name := range benchNames() {
		for _, filter := range []bool{false, true} {
			want, err := facadeRun(name, filter, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tracedRun(ctx, name, filter, nil, newTracer(), -1, &opCounters{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (filter=%t): traced outcome differs from the facade's:\n got %+v\nwant %+v", name, filter, got, want)
			}
		}
		var live, traced bytes.Buffer
		if _, err := facadeRun(name, false, &live); err != nil {
			t.Fatal(err)
		}
		if _, err := tracedRun(ctx, name, false, &traced, newTracer(), -1, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(live.Bytes(), traced.Bytes()) {
			t.Errorf("%s: traced journal (%d bytes) differs from the facade's (%d bytes)", name, traced.Len(), live.Len())
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.op = 3
	root := tr.begin("gpu", -1)
	tr.add("core", root, time.Now(), 2*time.Millisecond, 10)
	tr.end(root)
	tr.spans[root].Busy = int64(5 * time.Millisecond)
	lt := tr.layerTimes()[3]
	if lt["gpu"].busy != 5*time.Millisecond || lt["gpu"].self != 3*time.Millisecond || lt["core"].self != 2*time.Millisecond {
		t.Errorf("layer times %+v, want gpu busy 5ms self 3ms, core 2ms", lt)
	}
}

func TestOrderer(t *testing.T) {
	id := orderer(0, 10)
	for i, v := range id() {
		if v != i {
			t.Fatalf("seed 0 order %v, want Table II order", id())
		}
	}
	a, b := orderer(7, 10), orderer(7, 10)
	permuted := false
	for i := 0; i < 5; i++ {
		x, y := a(), b()
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("seed 7 orders differ: %v vs %v", x, y)
		}
		if !reflect.DeepEqual(x, id()) {
			permuted = true
		}
	}
	if !permuted {
		t.Error("seed 7 never permuted the order")
	}
}
