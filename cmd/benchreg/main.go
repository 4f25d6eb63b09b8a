// Command benchreg is the benchmark regression harness: it parses
// `go test -bench` output into a JSON snapshot and compares runs
// against a previous snapshot, warning when a benchmark regressed
// beyond a threshold.
//
// Snapshot the current benchmarks:
//
//	go test -run='^$' -bench=. -benchtime=1x . | benchreg -snapshot BENCH.json
//
// Compare a fresh run against the checked-in snapshot (prints WARN
// lines for >15% regressions; -strict turns warnings into a non-zero
// exit):
//
//	go test -run='^$' -bench=. -benchtime=1x . | benchreg -compare BENCH.json
//
// Wall-clock ns/op is noisy across machines, so ns/op is compared
// only when both snapshots carry it and drift is reported as a
// warning. Custom metrics (the virtual-time quantities the benchmarks
// report via b.ReportMetric, e.g. "vsec" or "relcost") come from the
// deterministic simulation: any drift there is a real behavioral
// change, and is flagged at the same threshold.
//
// Metrics whose unit starts with "wall" measure the file backend's
// real clock and split two ways. Pure durations ("wall-sec") measure
// the machine, not the code: recorded in snapshots for the history,
// never compared. Dimensionless wall ratios ("wall-overlap", the
// cross-device overlap fraction) are stable enough to gate — measured
// run-to-run variation is under 10% (paperbench -exp obsload
// characterizes it) — so they are compared under the separate, wider
// -wall-threshold, loose enough to absorb machine-to-machine spread
// while still catching an overlap collapse.
//
// Metrics whose unit starts with "first_tuple" (the streaming
// experiment's time-to-first-tuple figures) are likewise recorded but
// never compared: a first pair's arrival time is a point event that
// moves with any intentional partition-layout change.
//
// With -benchmem, allocs/op and B/op are recorded too. allocs/op on a
// simulator benchmark (one that reports no wall metric) is as
// deterministic as the virtual clock — three runs of the suite spread
// under 0.1% on every benchmark above a thousand allocations, and by
// at most five allocations below that — so it is compared under the
// fixed, tight allocPct threshold, with a floor of allocSlack
// allocations.
// B/op moves with allocation sizes and GC timing and is only
// reported. -strict fails the run on gated warnings only: virtual
// metric drift, allocs/op drift and coverage gaps; ns/op, wall-ratio
// and B/op findings never fail it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Bench is one benchmark's parsed result.
type Bench struct {
	// NsPerOp is wall time per iteration (noisy; compared loosely).
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp are the -benchmem counters (zero when
	// the run had no -benchmem).
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric values by unit. These are
	// virtual quantities from the deterministic simulator.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the JSON document benchreg reads and writes.
type Snapshot struct {
	Benchmarks map[string]Bench `json:"benchmarks"`
}

func main() {
	snapshot := flag.String("snapshot", "", "write parsed benchmarks from stdin to this JSON file")
	compare := flag.String("compare", "", "compare benchmarks from stdin against this JSON snapshot")
	threshold := flag.Float64("threshold", 15, "regression warning threshold (%)")
	wallThreshold := flag.Float64("wall-threshold", 60, "drift threshold (%) for the compared wall-clock ratios (wall-overlap)")
	strict := flag.Bool("strict", false, "exit non-zero when a gated warning fires (virtual metrics, allocs/op, coverage)")
	wall := flag.Bool("ns", true, "also compare wall-clock ns/op (disable on shared CI runners)")
	flag.Parse()

	if (*snapshot == "") == (*compare == "") {
		fmt.Fprintln(os.Stderr, "benchreg: exactly one of -snapshot or -compare is required")
		os.Exit(2)
	}

	cur, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreg:", err)
		os.Exit(2)
	}
	if len(cur.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchreg: no benchmark lines on stdin")
		os.Exit(2)
	}

	if *snapshot != "" {
		data, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreg:", err)
			os.Exit(2)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*snapshot, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchreg:", err)
			os.Exit(2)
		}
		fmt.Printf("benchreg: wrote %d benchmarks to %s\n", len(cur.Benchmarks), *snapshot)
		return
	}

	old, err := load(*compare)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreg:", err)
		os.Exit(2)
	}
	allocWarnings, notes := diffMem(old, cur, allocPct, *threshold)
	warnings := append(diff(old, cur, *threshold, *wallThreshold, *wall), allocWarnings...)
	// The gated subset: the same comparison without ns/op and with the
	// wall ratios out of reach, plus allocs/op.
	gated := len(diff(old, cur, *threshold, math.Inf(1), false)) + len(allocWarnings)
	for _, w := range warnings {
		fmt.Println(w)
	}
	for _, n := range notes {
		fmt.Println(n)
	}
	fmt.Printf("benchreg: %d benchmarks compared against %s, %d warnings, %d gated (threshold %g%%, allocs %g%%)\n",
		len(cur.Benchmarks), *compare, len(warnings), gated, *threshold, allocPct)
	if *strict && gated > 0 {
		os.Exit(1)
	}
}

func load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// parse extracts benchmark result lines from `go test -bench` output.
// A line looks like:
//
//	BenchmarkName-8   100   123456 ns/op   42.5 vsec   1.9 relcost
//
// i.e. name, iteration count, then (value, unit) pairs.
func parse(r io.Reader) (*Snapshot, error) {
	out := &Snapshot{Benchmarks: map[string]Bench{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix so snapshots compare across
		// machines with different core counts.
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue
		}
		b := Bench{Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch unit := fields[i+1]; {
			case unit == "ns/op":
				b.NsPerOp = v
			case unit == "allocs/op":
				b.AllocsPerOp = v
			case unit == "B/op":
				b.BytesPerOp = v
			case !strings.HasSuffix(unit, "/op") || isCustom(unit):
				b.Metrics[unit] = v
			}
		}
		if len(b.Metrics) == 0 {
			b.Metrics = nil
		}
		out.Benchmarks[name] = b
	}
	return out, sc.Err()
}

// isCustom keeps custom per-op metrics (anything that is not the
// standard B/op and allocs/op memory counters).
func isCustom(unit string) bool {
	return unit != "B/op" && unit != "allocs/op"
}

// isWall reports whether a metric unit is a wall-clock measurement
// ("wall-sec", "wall-overlap", ...).
func isWall(unit string) bool {
	return strings.HasPrefix(unit, "wall")
}

// wallCompared lists the wall metrics stable enough to gate: ratios
// of wall quantities, whose machine dependence largely cancels. Every
// other wall metric is recorded in snapshots but never compared.
var wallCompared = map[string]bool{
	"wall-overlap": true,
}

// wallExcluded reports whether a unit is a wall metric outside the
// compared set.
func wallExcluded(unit string) bool {
	return isWall(unit) && !wallCompared[unit]
}

// firstTupleExcluded reports whether a unit is a time-to-first-tuple
// metric ("first_tuple-SYM-H", ...). These are deterministic virtual
// quantities, but point events: the arrival of a single pair shifts
// with any intentional change to partition layout or batch sizing, so
// gating them at the drift threshold would cry wolf on every plan
// tweak. Recorded in snapshots for the history, never compared.
func firstTupleExcluded(unit string) bool {
	return strings.HasPrefix(unit, "first_tuple")
}

// excluded reports whether a metric is recorded but never compared.
func excluded(unit string) bool {
	return wallExcluded(unit) || firstTupleExcluded(unit)
}

// diff reports regressions of cur against old beyond pct percent
// (wallPct percent for the compared wall ratios). Missing and new
// benchmarks are reported too: a silently vanished benchmark is how
// coverage rots.
func diff(old, cur *Snapshot, pct, wallPct float64, wall bool) []string {
	var warnings []string
	names := make([]string, 0, len(old.Benchmarks))
	for name := range old.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o := old.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			warnings = append(warnings, fmt.Sprintf("WARN %s: benchmark missing from current run", name))
			continue
		}
		if wall && o.NsPerOp > 0 && c.NsPerOp > 0 {
			if d := change(o.NsPerOp, c.NsPerOp); d > pct {
				warnings = append(warnings, fmt.Sprintf(
					"WARN %s: ns/op regressed %.1f%% (%.0f -> %.0f)", name, d, o.NsPerOp, c.NsPerOp))
			}
		}
		units := make([]string, 0, len(o.Metrics))
		for unit := range o.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			if excluded(unit) {
				continue // pure wall-clock or first-tuple: recorded, never compared
			}
			limit := pct
			if isWall(unit) {
				limit = wallPct // compared wall ratio: wider gate
			}
			ov := o.Metrics[unit]
			cv, ok := c.Metrics[unit]
			if !ok {
				warnings = append(warnings, fmt.Sprintf("WARN %s: metric %q missing from current run", name, unit))
				continue
			}
			// Deterministic virtual metrics: drift in either direction
			// beyond the threshold is a behavioral change worth eyes.
			if d := change(ov, cv); d > limit {
				warnings = append(warnings, fmt.Sprintf(
					"WARN %s: %s drifted %.1f%% (%g -> %g, threshold %.0f%%)", name, unit, d, ov, cv, limit))
			}
		}
		for _, unit := range newKeys(o.Metrics, c.Metrics) {
			if excluded(unit) {
				continue
			}
			warnings = append(warnings, fmt.Sprintf(
				"WARN %s: metric %q missing from snapshot (re-snapshot to start guarding it)", name, unit))
		}
	}
	// A benchmark or metric the snapshot has never seen passes every
	// comparison vacuously; surface it so the snapshot gets refreshed
	// and the new quantity comes under guard.
	curNames := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		if _, ok := old.Benchmarks[name]; !ok {
			curNames = append(curNames, name)
		}
	}
	sort.Strings(curNames)
	for _, name := range curNames {
		warnings = append(warnings, fmt.Sprintf(
			"WARN %s: benchmark missing from snapshot (re-snapshot to start guarding it)", name))
	}
	return warnings
}

// allocPct is the allocs/op drift (%) that fails a simulator
// benchmark, and allocSlack the drift in allocations always
// tolerated: benchmarks of a few dozen allocations move by a handful
// of runtime allocations run to run (Fig1SmallR measured 32–33).
const (
	allocPct   = 1.0
	allocSlack = 16
)

// simBench reports whether a benchmark runs on the simulator: it
// reports no wall-clock metric. Only those have deterministic
// allocation counts; the file backend's depend on I/O timing.
func simBench(b Bench) bool {
	for unit := range b.Metrics {
		if isWall(unit) {
			return false
		}
	}
	return true
}

// diffMem compares the -benchmem counters of benchmarks present in
// both snapshots. allocs/op drift on a simulator benchmark beyond
// pct percent (and allocSlack allocations) is a gated warning,
// as is a snapshot count missing from the current run. B/op drift
// beyond bytesPct percent is a report-only note. Snapshots without
// -benchmem counters compare nothing.
func diffMem(old, cur *Snapshot, pct, bytesPct float64) (warnings, notes []string) {
	names := make([]string, 0, len(old.Benchmarks))
	for name := range old.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o := old.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok || !simBench(o) {
			continue // a missing benchmark is diff's warning
		}
		if o.AllocsPerOp > 0 {
			switch d := change(o.AllocsPerOp, c.AllocsPerOp); {
			case c.AllocsPerOp == 0:
				warnings = append(warnings, fmt.Sprintf(
					"WARN %s: allocs/op missing from current run (run with -benchmem)", name))
			case d > pct && math.Abs(c.AllocsPerOp-o.AllocsPerOp) > allocSlack:
				warnings = append(warnings, fmt.Sprintf(
					"WARN %s: allocs/op drifted %.2f%% (%g -> %g, threshold %g%%)", name, d, o.AllocsPerOp, c.AllocsPerOp, pct))
			}
		}
		if o.BytesPerOp > 0 && c.BytesPerOp > 0 {
			if d := change(o.BytesPerOp, c.BytesPerOp); d > bytesPct {
				notes = append(notes, fmt.Sprintf(
					"NOTE %s: B/op drifted %.1f%% (%g -> %g; report-only)", name, d, o.BytesPerOp, c.BytesPerOp))
			}
		}
	}
	return warnings, notes
}

// newKeys returns the keys of cur absent from old, sorted.
func newKeys(old, cur map[string]float64) []string {
	var keys []string
	for k := range cur {
		if _, ok := old[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// change returns the absolute percent change from a to b.
func change(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(b-a) / math.Abs(a) * 100
}
