package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
)

// pin is one benchmark's expected output at scale 1 on the Table I
// machine under the paper's detection configuration. Simulated values
// are deterministic, so every op must reproduce them exactly.
type pin struct {
	Cycles     int64  // simulated cycles over the plan's kernels
	WarpInstrs int64  // issued warp instructions
	LaneInstrs int64  // lane-level instructions (active lanes summed)
	Races      int    // distinct races
	RaceSHA    string // SHA-256 of the sorted race strings, newline-joined
	Filtered   int64  // lane checks the static filter skips (StaticFilter runs)
}

// pins holds every benchmark of the suite. Update it only when the
// simulated model changes on purpose: `perfbench -print-pins` prints
// the table the current program produces.
var pins = map[string]pin{
	"mcarlo": {Cycles: 15953, WarpInstrs: 63200, LaneInstrs: 1857520, Races: 0,
		RaceSHA: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", Filtered: 10224},
	"scan": {Cycles: 5369, WarpInstrs: 5116, LaneInstrs: 140308, Races: 256,
		RaceSHA: "ef5df044cc7e0bbfeabafaf42dabd3a95ec0b4a93bd1cc978d8c838adc2531b1", Filtered: 24588},
	"fwalsh": {Cycles: 7875, WarpInstrs: 8544, LaneInstrs: 258048, Races: 0,
		RaceSHA: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", Filtered: 49152},
	"hist": {Cycles: 33496, WarpInstrs: 30368, LaneInstrs: 881152, Races: 4332,
		RaceSHA: "95a6199dc28727769b801dc3e9b46349354816ddf6a4854c58ba05913bd3ec8f", Filtered: 8704},
	"sortnw": {Cycles: 20056, WarpInstrs: 38560, LaneInstrs: 1153024, Races: 0,
		RaceSHA: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", Filtered: 155648},
	"reduce": {Cycles: 9973, WarpInstrs: 14409, LaneInstrs: 386717, Races: 0,
		RaceSHA: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", Filtered: 0},
	"psum": {Cycles: 66316, WarpInstrs: 29158, LaneInstrs: 610365, Races: 0,
		RaceSHA: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", Filtered: 67080},
	"offt": {Cycles: 1259, WarpInstrs: 3264, LaneInstrs: 96480, Races: 32,
		RaceSHA: "45983c779e37891583880186652549c595e3da80e65e71dd229929fb0d533f63", Filtered: 10240},
	"kmeans": {Cycles: 259781, WarpInstrs: 167734, LaneInstrs: 518111, Races: 230,
		RaceSHA: "825d6897b8ea7ca52a4160d08ab9849bfdc5335f30e8898ce03a222ae1f762a8", Filtered: 58504},
	"hash": {Cycles: 7262, WarpInstrs: 736, LaneInstrs: 21504, Races: 0,
		RaceSHA: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", Filtered: 0},
}

// raceSHA is the hex SHA-256 of sorted race strings joined by "\n".
func raceSHA(sorted []string) string {
	sum := sha256.Sum256([]byte(strings.Join(sorted, "\n")))
	return hex.EncodeToString(sum[:])
}

// checkVerdict compares a run's findings with its pin.
func checkVerdict(pins map[string]pin, bench string, races []string) error {
	p, ok := pins[bench]
	if !ok {
		return fmt.Errorf("%s: no pin", bench)
	}
	if len(races) != p.Races {
		return fmt.Errorf("%s: %d races, pinned %d", bench, len(races), p.Races)
	}
	if got := raceSHA(races); got != p.RaceSHA {
		return fmt.Errorf("%s: race digest %s, pinned %s", bench, got, p.RaceSHA)
	}
	return nil
}

// checkRun compares a simulated run with its pin. filter says whether
// the run used the static filter, which must skip exactly the pinned
// number of lane checks (and none without it).
func checkRun(pins map[string]pin, o outcome, filter bool) error {
	if err := checkVerdict(pins, o.bench, o.races); err != nil {
		return err
	}
	p := pins[o.bench]
	if o.stats == nil {
		return fmt.Errorf("%s: no launch stats", o.bench)
	}
	if o.stats.Cycles != p.Cycles || o.stats.WarpInstrs != p.WarpInstrs || o.stats.ThreadInstrs != p.LaneInstrs {
		return fmt.Errorf("%s: cycles/warp/lane instrs %d/%d/%d, pinned %d/%d/%d", o.bench,
			o.stats.Cycles, o.stats.WarpInstrs, o.stats.ThreadInstrs, p.Cycles, p.WarpInstrs, p.LaneInstrs)
	}
	want := int64(0)
	if filter {
		want = p.Filtered
	}
	if o.filtered != want {
		return fmt.Errorf("%s: %d filtered checks, want %d", o.bench, o.filtered, want)
	}
	return nil
}

// checkReplay checks a replay verdict: it must equal the recorded one
// (MATCH) and the pin.
func checkReplay(pins map[string]pin, o outcome) error {
	if o.match == nil || !*o.match {
		return fmt.Errorf("%s: replay verdict is not MATCH", o.bench)
	}
	return checkVerdict(pins, o.bench, o.races)
}

// printPins writes the pin table the current program produces, as Go
// source for the pins variable.
func printPins(w io.Writer) error {
	fmt.Fprintln(w, "var pins = map[string]pin{")
	for _, name := range benchNames() {
		o, err := facadeRun(name, false, nil)
		if err != nil {
			return err
		}
		f, err := facadeRun(name, true, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\t%q: {Cycles: %d, WarpInstrs: %d, LaneInstrs: %d, Races: %d,\n\t\tRaceSHA: %q, Filtered: %d},\n",
			name, o.stats.Cycles, o.stats.WarpInstrs, o.stats.ThreadInstrs, len(o.races), raceSHA(o.races), f.filtered)
	}
	fmt.Fprintln(w, "}")
	return nil
}
