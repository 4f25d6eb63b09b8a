package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Some CPU @ 2.70GHz
BenchmarkFig1SmallR-8         	       1	     35366 ns/op	         3.950 relcost-DT-NB@5M
BenchmarkFig4Utilization-8    	       1	  43828083 ns/op	        98.60 util-%
BenchmarkPlain-8              	     100	      1234 ns/op
BenchmarkWithAllocs-8         	     100	      1234 ns/op	     512 B/op	       3 allocs/op
not a benchmark line
PASS
ok  	repro	12.007s
`

func TestParse(t *testing.T) {
	s, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %+v", len(s.Benchmarks), s.Benchmarks)
	}
	fig1, ok := s.Benchmarks["BenchmarkFig1SmallR"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if fig1.NsPerOp != 35366 {
		t.Errorf("ns/op = %v, want 35366", fig1.NsPerOp)
	}
	if got := fig1.Metrics["relcost-DT-NB@5M"]; got != 3.950 {
		t.Errorf("custom metric = %v, want 3.950", got)
	}
	if got := s.Benchmarks["BenchmarkFig4Utilization"].Metrics["util-%"]; got != 98.60 {
		t.Errorf("util metric = %v, want 98.60", got)
	}
	if m := s.Benchmarks["BenchmarkPlain"].Metrics; m != nil {
		t.Errorf("plain benchmark grew metrics: %v", m)
	}
	// Memory counters are standard tooling output, not tracked metrics.
	if m := s.Benchmarks["BenchmarkWithAllocs"].Metrics; len(m) != 0 {
		t.Errorf("B/op and allocs/op leaked into metrics: %v", m)
	}
}

func TestDiff(t *testing.T) {
	old := &Snapshot{Benchmarks: map[string]Bench{
		"A": {NsPerOp: 100, Metrics: map[string]float64{"vsec": 50}},
		"B": {NsPerOp: 100},
		"C": {NsPerOp: 100, Metrics: map[string]float64{"vsec": 10}},
	}}
	cur := &Snapshot{Benchmarks: map[string]Bench{
		"A": {NsPerOp: 105, Metrics: map[string]float64{"vsec": 80}}, // metric drift 60%
		"B": {NsPerOp: 300},                                          // ns/op regression 200%
		// C missing entirely
	}}

	warnings := diff(old, cur, 15, 60, true)
	if len(warnings) != 3 {
		t.Fatalf("got %d warnings, want 3:\n%s", len(warnings), strings.Join(warnings, "\n"))
	}
	for _, want := range []string{"A: vsec drifted", "B: ns/op regressed", "C: benchmark missing"} {
		found := false
		for _, w := range warnings {
			if strings.Contains(w, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no warning matching %q in:\n%s", want, strings.Join(warnings, "\n"))
		}
	}

	// Same snapshots, wall-clock comparison off: only the deterministic
	// metric and the missing benchmark should fire.
	warnings = diff(old, cur, 15, 60, false)
	for _, w := range warnings {
		if strings.Contains(w, "ns/op") {
			t.Errorf("ns/op warning with -ns=false: %s", w)
		}
	}
	if len(warnings) != 2 {
		t.Fatalf("got %d warnings with -ns=false, want 2:\n%s", len(warnings), strings.Join(warnings, "\n"))
	}

	// Within threshold: quiet.
	if w := diff(old, old, 15, 60, true); len(w) != 0 {
		t.Fatalf("self-diff produced warnings: %v", w)
	}
}

// TestDiffExcludesWallClockMetrics: wall metrics outside the compared
// set ("wall-sec" and friends — pure durations of the machine the run
// happened on) are recorded in snapshots but never compared — not for
// drift, not for missing-from-snapshot, not for missing-from-current.
func TestDiffExcludesWallClockMetrics(t *testing.T) {
	old := &Snapshot{Benchmarks: map[string]Bench{
		"A": {Metrics: map[string]float64{"vsec": 50, "wall-sec": 0.2}},
	}}
	cur := &Snapshot{Benchmarks: map[string]Bench{
		// wall-sec drifted 10x; vsec drifted too, and an excluded wall
		// metric appeared that the snapshot lacks.
		"A": {Metrics: map[string]float64{"vsec": 80, "wall-sec": 2.0, "wall-new": 1}},
	}}

	warnings := diff(old, cur, 15, 60, false)
	for _, w := range warnings {
		if strings.Contains(w, "wall") {
			t.Errorf("wall-clock metric produced a warning: %s", w)
		}
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "vsec drifted") {
		t.Fatalf("want exactly the vsec drift warning, got:\n%s", strings.Join(warnings, "\n"))
	}
}

// TestDiffExcludesFirstTupleMetrics: first_tuple* metrics are
// deterministic but point-like — the first pair's arrival moves with
// any intentional plan change — so, like pure wall durations, they are
// recorded in snapshots but never compared in any direction.
func TestDiffExcludesFirstTupleMetrics(t *testing.T) {
	old := &Snapshot{Benchmarks: map[string]Bench{
		"A": {Metrics: map[string]float64{"vsec": 50, "first_tuple-SYM-H": 3.0}},
	}}
	cur := &Snapshot{Benchmarks: map[string]Bench{
		// first_tuple drifted 10x and a new first_tuple metric appeared;
		// neither may warn. The vsec drift still must.
		"A": {Metrics: map[string]float64{"vsec": 80, "first_tuple-SYM-H": 30.0,
			"first_tuple-best-materializing": 25.0}},
	}}

	warnings := diff(old, cur, 15, 60, false)
	for _, w := range warnings {
		if strings.Contains(w, "first_tuple") {
			t.Errorf("first_tuple metric produced a warning: %s", w)
		}
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "vsec drifted") {
		t.Fatalf("want exactly the vsec drift warning, got:\n%s", strings.Join(warnings, "\n"))
	}

	// Vanishing first_tuple metrics are also quiet.
	cur = &Snapshot{Benchmarks: map[string]Bench{
		"A": {Metrics: map[string]float64{"vsec": 50}},
	}}
	if w := diff(old, cur, 15, 60, false); len(w) != 0 {
		t.Fatalf("missing first_tuple metric warned:\n%s", strings.Join(w, "\n"))
	}
}

// TestDiffComparesWallOverlap: the wall-overlap ratio is in the
// compared set — stable run to run (paperbench -exp obsload measures
// its variance under 10%), so a collapse past the wide wall threshold
// is a real concurrency regression, not machine noise.
func TestDiffComparesWallOverlap(t *testing.T) {
	old := &Snapshot{Benchmarks: map[string]Bench{
		"A": {Metrics: map[string]float64{"wall-overlap": 0.40}},
	}}

	// Drift within the wall threshold: quiet, even though it would trip
	// the ordinary 15% gate.
	cur := &Snapshot{Benchmarks: map[string]Bench{
		"A": {Metrics: map[string]float64{"wall-overlap": 0.30}},
	}}
	if w := diff(old, cur, 15, 60, false); len(w) != 0 {
		t.Fatalf("25%% wall-overlap drift should pass the 60%% wall gate:\n%s", strings.Join(w, "\n"))
	}

	// Overlap collapse: flagged.
	cur = &Snapshot{Benchmarks: map[string]Bench{
		"A": {Metrics: map[string]float64{"wall-overlap": 0.05}},
	}}
	w := diff(old, cur, 15, 60, false)
	if len(w) != 1 || !strings.Contains(w[0], "wall-overlap drifted") {
		t.Fatalf("want the wall-overlap drift warning, got:\n%s", strings.Join(w, "\n"))
	}

	// Vanishing from the current run is a coverage hole, not noise.
	cur = &Snapshot{Benchmarks: map[string]Bench{
		"A": {Metrics: map[string]float64{}},
	}}
	w = diff(old, cur, 15, 60, false)
	if len(w) != 1 || !strings.Contains(w[0], `metric "wall-overlap" missing from current run`) {
		t.Fatalf("want the missing wall-overlap warning, got:\n%s", strings.Join(w, "\n"))
	}
}

// TestParseRecordsWallClockMetrics: excluded from comparison does not
// mean dropped — snapshots keep the wall numbers for human history.
func TestParseRecordsWallClockMetrics(t *testing.T) {
	out := "BenchmarkFileBackendOverlap-8 \t 1 \t 150000000 ns/op \t 0.35 wall-overlap \t 0.15 wall-sec\n"
	s, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	m := s.Benchmarks["BenchmarkFileBackendOverlap"].Metrics
	if m["wall-overlap"] != 0.35 || m["wall-sec"] != 0.15 {
		t.Fatalf("wall metrics not recorded: %v", m)
	}
}

// TestDiffWarnsOnSnapshotGaps guards the guard: a benchmark or metric
// present in the current run but absent from the snapshot used to pass
// silently — every comparison loop iterated the snapshot's keys only —
// so a newly added quantity was never under regression watch.
func TestDiffWarnsOnSnapshotGaps(t *testing.T) {
	old := &Snapshot{Benchmarks: map[string]Bench{
		"A": {NsPerOp: 100, Metrics: map[string]float64{"vsec": 50}},
	}}
	cur := &Snapshot{Benchmarks: map[string]Bench{
		"A":   {NsPerOp: 100, Metrics: map[string]float64{"vsec": 50, "relcost": 2.5}},
		"New": {NsPerOp: 100},
	}}

	warnings := diff(old, cur, 15, 60, true)
	if len(warnings) != 2 {
		t.Fatalf("got %d warnings, want 2:\n%s", len(warnings), strings.Join(warnings, "\n"))
	}
	for _, want := range []string{
		`A: metric "relcost" missing from snapshot`,
		"New: benchmark missing from snapshot",
	} {
		found := false
		for _, w := range warnings {
			if strings.Contains(w, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no warning matching %q in:\n%s", want, strings.Join(warnings, "\n"))
		}
	}

	// Identical key sets stay quiet — the gap warnings must not fire on
	// an up-to-date snapshot.
	if w := diff(old, old, 15, 60, true); len(w) != 0 {
		t.Fatalf("self-diff produced warnings: %v", w)
	}
}

// TestParseRecordsMemCounters: -benchmem counters land in their own
// fields, never among the custom metrics.
func TestParseRecordsMemCounters(t *testing.T) {
	s, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	b := s.Benchmarks["BenchmarkWithAllocs"]
	if b.AllocsPerOp != 3 || b.BytesPerOp != 512 {
		t.Fatalf("allocs/op = %v, B/op = %v; want 3 and 512", b.AllocsPerOp, b.BytesPerOp)
	}
}

// TestDiffMemGatesSimAllocs: allocs/op drift past the threshold and
// the slack warns on simulator benchmarks only; B/op drift is a note;
// snapshots without counters compare nothing.
func TestDiffMemGatesSimAllocs(t *testing.T) {
	old := &Snapshot{Benchmarks: map[string]Bench{
		"Sim":    {AllocsPerOp: 100000, BytesPerOp: 1e6, Metrics: map[string]float64{"vsec": 1}},
		"Small":  {AllocsPerOp: 32},
		"File":   {AllocsPerOp: 5000, Metrics: map[string]float64{"wall-sec": 1}},
		"NoMem":  {Metrics: map[string]float64{"vsec": 1}},
		"Steady": {AllocsPerOp: 100000},
	}}
	cur := &Snapshot{Benchmarks: map[string]Bench{
		"Sim":    {AllocsPerOp: 102000, BytesPerOp: 2e6, Metrics: map[string]float64{"vsec": 1}}, // +2%
		"Small":  {AllocsPerOp: 40},                                                              // +25%, within the slack
		"File":   {AllocsPerOp: 9000, Metrics: map[string]float64{"wall-sec": 1}},                // not gated
		"NoMem":  {AllocsPerOp: 7, Metrics: map[string]float64{"vsec": 1}},
		"Steady": {AllocsPerOp: 100500}, // +0.5%
	}}
	warnings, notes := diffMem(old, cur, 1, 15)
	if len(warnings) != 1 || !strings.Contains(warnings[0], "Sim: allocs/op drifted") {
		t.Fatalf("want only Sim's allocs/op warning, got:\n%s", strings.Join(warnings, "\n"))
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "Sim: B/op drifted") {
		t.Fatalf("want only Sim's B/op note, got:\n%s", strings.Join(notes, "\n"))
	}

	// A run without -benchmem against a snapshot with counters is a
	// coverage gap.
	cur.Benchmarks["Steady"] = Bench{}
	warnings, _ = diffMem(old, cur, 1, 15)
	found := false
	for _, w := range warnings {
		found = found || strings.Contains(w, "Steady: allocs/op missing")
	}
	if !found {
		t.Fatalf("missing allocs/op not flagged:\n%s", strings.Join(warnings, "\n"))
	}
}
