package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// output is one query's answer, kept so the traced run can be compared
// with the untraced one and every full join checked against a reference.
type output struct {
	id      string
	matches int64
	hash    uint64
	virtual float64 // virtual seconds; compared only on deterministic workloads
	// ref names the reference job that must reproduce hash; empty for
	// LIMIT-n queries, whose output is a prefix.
	ref string
	// method is the method that executed the query; the reference join
	// uses a different one.
	method string
}

// recorder accumulates one phase's observations. Safe for concurrent use.
type recorder struct {
	traced bool

	mu          sync.Mutex
	lat         []float64 // ms per operation
	queries     int       // queries attempted
	failed      int       // queries failed, rejected, lost or answered wrongly
	wrong       int       // wrong answers and protocol violations
	virtual     float64   // virtual seconds charged to the workload
	outputs     outputLog
	layer       map[string]float64
	firstPair   []float64 // ms from POST to the first streamed pair
	problems    []string
	spans       *spanLog
	checkpoints []checkpoint
}

func newRecorder(traced bool) *recorder {
	r := &recorder{traced: traced, layer: map[string]float64{}}
	if traced {
		r.spans = newSpanLog(maxTracedQueries)
	}
	return r
}

func (r *recorder) op(ms float64) {
	r.mu.Lock()
	r.lat = append(r.lat, ms)
	r.mu.Unlock()
}

// query records one answered query; wrongly is non-empty when its
// answer is wrong.
func (r *recorder) query(id string, out output, wrongly string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queries++
	if wrongly != "" {
		r.failed++
		r.wrong++
		r.problemLocked(id + ": " + wrongly)
	}
	out.id = id
	r.outputs.add(out)
}

// outputLog holds the answers of a phase in fixed-size chunks, so the
// memory it holds grows smoothly with the queries answered and the live
// heap the benchmark reports has no jumps of its own.
type outputLog struct{ chunks [][]output }

const outputChunk = 1024

func (l *outputLog) add(o output) {
	if n := len(l.chunks); n == 0 || len(l.chunks[n-1]) == outputChunk {
		l.chunks = append(l.chunks, make([]output, 0, outputChunk))
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, o)
}

// all returns every answer, in the order recorded.
func (l *outputLog) all() []output {
	var out []output
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	return out
}

// fail records a query that produced no answer.
func (r *recorder) fail(id, why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queries++
	r.failed++
	r.problemLocked(id + ": " + why)
}

// markWrong counts an answer found wrong after the timed phase.
func (r *recorder) markWrong(id, why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wrong++
	r.failed++
	r.problemLocked(id + ": " + why)
}

// markLost records a query whose response broke the wire protocol: a
// lost, duplicated or unreadable result line.
func (r *recorder) markLost(id, why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queries++
	r.failed++
	r.wrong++
	r.problemLocked(id + ": " + why)
}

func (r *recorder) problemLocked(s string) {
	if len(r.problems) < 8 {
		r.problems = append(r.problems, s)
	}
}

func (r *recorder) add(key string, v float64) {
	r.mu.Lock()
	r.layer[key] += v
	r.mu.Unlock()
}

// mix counts one query property for the op-mix report: "method=X",
// "streamed", "limit", "shared" or "cache-hit".
func (r *recorder) mix(key string) { r.add("mix."+key, 1) }

// firstPairAt records the wall time from a LIMIT-n query's POST to its
// first streamed pair.
func (r *recorder) firstPairAt(ms float64) {
	r.mu.Lock()
	r.firstPair = append(r.firstPair, ms)
	r.mu.Unlock()
}

func (r *recorder) max(key string, v float64) {
	r.mu.Lock()
	if v > r.layer[key] {
		r.layer[key] = v
	}
	r.mu.Unlock()
}

func (r *recorder) addVirtual(s float64) {
	r.mu.Lock()
	r.virtual += s
	r.mu.Unlock()
}

// clocks is a snapshot of the process clocks a phase is measured on.
type clocks struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
}

func readClocks() clocks {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return clocks{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
	}
}

// liveHeapMB forces a collection and returns the heap in use.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// tailLadder are the percentiles a tail may be reported at. Their
// sample-count thresholds lie a decade apart, so a run's length does not
// flip a workload between neighbouring percentiles.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// quantile returns the nearest-rank q-th percentile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tail returns the highest ladder percentile with at least ten samples
// beyond it, and its value.
func tail(values []float64) (pct, v float64) {
	s := sortedCopy(values)
	pct = tailLadder[0]
	for _, p := range tailLadder {
		if float64(len(s))*(1-p/100) >= 10 {
			pct = p
		}
	}
	return pct, quantile(s, pct)
}

func median(values []float64) float64 { return quantile(sortedCopy(values), 50) }

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// splitmix mixes a seed and indices into a well-spread 64-bit value, so
// every generated relation and query is a pure function of the seed.
func splitmix(parts ...int64) int64 {
	x := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		x ^= uint64(p)
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	return int64(x >> 1)
}

func describeTail(name string, values []float64) string {
	pct, v := tail(values)
	return fmt.Sprintf("%s = p%g %.4f ms (n=%d, %d beyond)", name, pct, v, len(values),
		int(float64(len(values))*(1-pct/100)))
}

// checkpoint is the process state after a fixed number of queries.
type checkpoint struct {
	queries     int
	heapMB      float64 // after a forced collection
	goroutines  int
	freeMB      int64 // summed free space of the workload's cartridges
	substituted float64
}

// checkpoint records the state after queries. The caller must have
// stopped issuing work, so the collection sees a quiet heap.
func (r *recorder) checkpoint(queries int, freeMB int64, substituted float64) {
	heap := liveHeapMB()
	r.mu.Lock()
	r.checkpoints = append(r.checkpoints, checkpoint{
		queries: queries, heapMB: heap, goroutines: runtime.NumGoroutine(),
		freeMB: freeMB, substituted: substituted,
	})
	r.mu.Unlock()
}
