// Command perfbench is the repository benchmark. It runs one named
// workload with a seed for a fixed time, checks every answer, and
// prints the end-to-end metrics on three clocks: virtual seconds of
// the paper's cost model, process CPU and allocations, and wall time.
// With -trace 1 it instead runs the workload twice, untraced and then
// traced (phase spans, CPU and allocation profiles, its own spans
// around every call), and prints the per-layer metrics.
//
// It reaches the program only through public functions: the tapejoin
// facade, HTTP against an in-process tapejoind, and the exported APIs
// of internal packages. Build and run it from the repository root:
//
//	bash perfbench/run.sh --workload solo-sparse --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRuns is how many times a run builds its set-up state; setup_s
// is the median.
const setupRuns = 21

// workload is one benchmark workload.
type workload interface {
	// setup builds the state the timed phase starts from, replacing any
	// earlier state, and returns the time spent generating relations.
	setup() (time.Duration, error)
	// run issues operations until deadline, or until the workload's
	// round is complete, recording each into rec; the next round
	// continues the operation sequence after a fresh setup.
	run(deadline time.Time, rec *recorder) error
	// verify checks every recorded full join against an untimed
	// reference join of the same inputs.
	verify(rec *recorder) error
	// close releases the state setup built.
	close()
}

type workloadDef struct {
	name string
	// deterministic reports that virtual time is a pure function of the
	// inputs, so the traced run must reproduce it exactly.
	deterministic bool
	make          func(seed int64, traced bool, root string) workload
}

var workloads = []workloadDef{
	{"solo-sparse", true, func(seed int64, traced bool, root string) workload {
		return newSolo(seed, "sim", "", traced)
	}},
	{"batch-skew", true, func(seed int64, traced bool, root string) workload {
		return newBatch(seed, traced)
	}},
	{"daemon-mixed", false, func(seed int64, traced bool, root string) workload {
		return newDaemon(seed, traced)
	}},
	{"solo-file", false, func(seed int64, traced bool, root string) workload {
		return newSolo(seed, "file", fileDir(root, fmt.Sprintf("solo-file-%d", os.Getpid())), traced)
	}},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: solo-sparse, batch-skew, daemon-mixed or solo-file")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	root := flag.String("root", ".", "repository root; scratch files go under its .bench_build")
	flag.Parse()
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (solo-sparse, batch-skew, daemon-mixed, solo-file), -seconds > 0, -trace 0|1")
		os.Exit(2)
	}
	res, err := benchmark(def, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// phase is one measured stretch of operations, made of one or more
// rounds.
type phase struct {
	rec      *recorder
	rounds   []round
	wall     time.Duration
	cpu      time.Duration
	verified int
	// Traced phases only: CPU nanoseconds and allocated objects per layer.
	cpuLayers, allocLayers buckets
}

// round is one timed run of a workload from a fresh set-up. A workload
// whose state grows with every query (the daemon) serves a fixed number
// of queries per round and is set up again, untimed, for the next; the
// others run a single round until the deadline.
type round struct {
	wall, cpu time.Duration
	mallocs   uint64
	heapMB    float64 // after a forced collection at the round's end
	lat       []float64
	verified  int
	virtual   float64
}

func (p *phase) perQuery(v float64) float64 { return mean(v, p.verified) }

// setupAll builds w's state setupRuns times and returns the set-up and
// generation times, in seconds.
func setupAll(w workload) (setups, gens []float64, err error) {
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		t0 := time.Now()
		gen, err := w.setup()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, gen.Seconds())
	}
	return setups, gens, nil
}

// measure runs w's operations for d of timed wall clock, in rounds,
// then verifies every answer untimed.
func measure(w workload, d time.Duration, traced bool) (*phase, error) {
	p := &phase{rec: newRecorder(traced)}
	rec := p.rec
	var prof *cpuProfile
	var alloc0 buckets
	if traced {
		runtime.MemProfileRate = 64 << 10
		var err error
		if alloc0, err = allocSnapshot(); err != nil {
			return nil, err
		}
		if prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	var runErr error
	for p.wall < d && runErr == nil {
		if len(p.rounds) > 0 {
			if _, runErr = w.setup(); runErr != nil {
				break
			}
		}
		runtime.GC()
		ops, done, virt := len(rec.lat), rec.queries-rec.failed, rec.virtual
		c0 := readClocks()
		runErr = w.run(c0.wall.Add(d-p.wall), rec)
		c1 := readClocks()
		r := round{
			wall: c1.wall.Sub(c0.wall), cpu: c1.cpu - c0.cpu, mallocs: c1.mallocs - c0.mallocs,
			heapMB: liveHeapMB(), lat: rec.lat[ops:], verified: rec.queries - rec.failed - done,
			virtual: rec.virtual - virt,
		}
		p.rounds = append(p.rounds, r)
		p.wall += r.wall
		p.cpu += r.cpu
	}
	if traced {
		var err error
		if p.cpuLayers, err = prof.stop(); err != nil {
			return nil, err
		}
		alloc1, err := allocSnapshot()
		if err != nil {
			return nil, err
		}
		p.allocLayers = alloc1.minus(alloc0)
	}
	if runErr != nil {
		return nil, runErr
	}
	v0 := time.Now()
	if err := w.verify(rec); err != nil {
		return nil, err
	}
	fmt.Printf("verified %d queries' answers in %.3fs\n", rec.queries, time.Since(v0).Seconds())
	p.verified = rec.queries - rec.failed
	if rec.queries == 0 {
		return nil, errors.New("no query finished in the measured time")
	}
	return p, nil
}

func benchmark(def *workloadDef, seed int64, d time.Duration, traced bool, root string) (*result, error) {
	w := def.make(seed, false, root)
	defer w.close()
	setups, gens, err := setupAll(w)
	if err != nil {
		return nil, err
	}
	if !traced {
		p, err := measure(w, d, false)
		if err != nil {
			return nil, err
		}
		w.close()
		return endToEnd(def, p, setups), nil
	}
	// The traced measurement: an untraced baseline, then the same
	// workload and seed traced from a fresh set-up.
	base, err := measure(w, d/2, false)
	if err != nil {
		return nil, err
	}
	w.close()
	tw := def.make(seed, true, root)
	defer tw.close()
	if _, err := tw.setup(); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	tr, err := measure(tw, d/2, true)
	if err != nil {
		return nil, err
	}
	tw.close()
	goroutines := settledGoroutines()
	problems := integrity(def, base.rec, tr.rec)
	path := filepath.Join(root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", def.name, seed))
	if err := tr.rec.spans.write(path); err != nil {
		problems = append(problems, "span file: "+err.Error())
	}
	fmt.Println(tr.rec.spans.summary())
	fmt.Println("span file:", path)
	fmt.Println("cpu by layer:", describeBuckets(tr.cpuLayers))
	fmt.Println("allocs by layer:", describeBuckets(tr.allocLayers))
	for _, cp := range tr.rec.checkpoints {
		fmt.Printf("checkpoint: queries=%d heap=%.3fMB goroutines=%d cartridge_free=%dMB substituted=%.4f\n",
			cp.queries, cp.heapMB, cp.goroutines, cp.freeMB, cp.substituted)
	}
	for _, pr := range problems {
		fmt.Println("integrity:", pr)
	}
	res := &result{
		Correct:   len(problems) == 0 && base.rec.wrong == 0 && tr.rec.wrong == 0,
		Attempted: base.rec.queries + tr.rec.queries,
		Failed:    base.rec.failed + tr.rec.failed,
		Metrics:   perLayer(base, tr, gens, goroutines),
	}
	printProblems(base.rec)
	printProblems(tr.rec)
	return res, nil
}

// integrity checks that tracing changed no answer: every query both
// runs finished has the same matches and output hash and, on
// deterministic workloads, the same virtual time.
func integrity(def *workloadDef, base, tr *recorder) []string {
	var out []string
	common := 0
	traced := map[string]output{}
	for _, t := range tr.outputs.all() {
		traced[t.id] = t
	}
	for _, b := range base.outputs.all() {
		id := b.id
		t, ok := traced[id]
		if !ok {
			continue
		}
		common++
		// A LIMIT-n answer is some prefix of the output, so only its
		// size is fixed.
		if b.matches != t.matches || (b.ref != "" && b.hash != t.hash) {
			out = append(out, fmt.Sprintf("%s: traced %d matches/%016x, untraced %d/%016x", id, t.matches, t.hash, b.matches, b.hash))
		} else if def.deterministic && b.virtual != t.virtual {
			out = append(out, fmt.Sprintf("%s: traced virtual %gs, untraced %gs", id, t.virtual, b.virtual))
		}
		if len(out) > 8 {
			break
		}
	}
	if common == 0 {
		out = append(out, "traced and untraced runs share no finished query")
	}
	fmt.Printf("integrity: %d queries compared between the traced and untraced runs\n", common)
	return out
}

// settledGoroutines counts goroutines once exiting ones are gone.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// endToEnd reports each end-to-end figure as the median over the
// phase's rounds.
func endToEnd(def *workloadDef, p *phase, setups []float64) *result {
	rec := p.rec
	// With several rounds, the last one was cut short by the deadline and
	// is unlike the others; it is verified but left out of the medians.
	rounds := p.rounds
	if len(rounds) > 1 {
		rounds = rounds[:len(rounds)-1]
	}
	perRound := func(f func(r round) float64) float64 {
		var v []float64
		for _, r := range rounds {
			v = append(v, f(r))
		}
		return median(v)
	}
	m := map[string]metric{
		"setup_s":             {median(setups), "s"},
		"queries_per_s":       {perRound(func(r round) float64 { return float64(r.verified) / r.wall.Seconds() }), "1/s"},
		"latency_p50_ms":      {perRound(func(r round) float64 { return median(r.lat) }), "ms"},
		"latency_tail_ms":     {perRound(func(r round) float64 { _, v := tail(r.lat); return v }), "ms"},
		"cpu_ms_per_query":    {perRound(func(r round) float64 { return mean(ms(r.cpu), r.verified) }), "ms"},
		"allocs_per_query":    {perRound(func(r round) float64 { return mean(float64(r.mallocs), r.verified) }), "count"},
		"live_heap_mb":        {perRound(func(r round) float64 { return r.heapMB }), "MB"},
		"verified_ratio":      {float64(p.verified) / float64(rec.queries), "fraction"},
		"virtual_s_per_query": {perRound(func(r round) float64 { return mean(r.virtual, r.verified) }), "s"},
	}
	fmt.Printf("workload %s: %d rounds, %d operations, %d queries attempted, %d verified, %d failed, %d wrong, timed wall %.3fs\n",
		def.name, len(p.rounds), len(rec.lat), rec.queries, p.verified, rec.failed, rec.wrong, p.wall.Seconds())
	for i, r := range p.rounds {
		note := ""
		if i >= len(rounds) {
			note = " (cut short, not in the medians)"
		}
		fmt.Printf("round %d: %d verified in %.3fs, latency_p50_ms = %.4f ms (n=%d), %s, heap %.3f MB%s\n",
			i, r.verified, r.wall.Seconds(), median(r.lat), len(r.lat), describeTail("latency_tail_ms", r.lat), r.heapMB, note)
	}
	fmt.Printf("setup_s = median %.4f s of %d set-ups\n", median(setups), len(setups))
	fmt.Println("op mix:", describeMix(rec))
	printProblems(rec)
	return &result{
		Correct:   rec.wrong == 0,
		Attempted: rec.queries,
		Failed:    rec.failed,
		Metrics:   m,
	}
}

// describeMix renders the share of queries with each op-mix property.
func describeMix(rec *recorder) string {
	var keys []string
	for k := range rec.layer {
		if strings.HasPrefix(k, "mix.") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%.3f", strings.TrimPrefix(k, "mix."), rec.layer[k]/float64(rec.queries)))
	}
	return strings.Join(parts, " ")
}

func printProblems(rec *recorder) {
	for _, pr := range rec.problems {
		fmt.Println("problem:", pr)
	}
}

func describeBuckets(b buckets) string {
	names := make([]string, 0, len(b))
	for k := range b {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return b[names[i]] > b[names[j]] })
	var parts []string
	for _, k := range names {
		parts = append(parts, fmt.Sprintf("%s=%.1f%%", k, 100*b.share(k)))
	}
	return strings.Join(parts, " ")
}
