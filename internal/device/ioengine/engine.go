// Package ioengine runs real OS I/O off the simulation's control
// token: every device owns a worker goroutine with a bounded request
// queue, a proc submits an operation and yields the token through
// sim.Proc.StartIO/Await, and independent devices' transfers overlap
// in wall-clock time while the kernel keeps virtual time deterministic.
//
// The engine also keeps the honest side of the books: per-device
// wall-clock busy time and the time at least one device was busy (an
// overlap fraction that mirrors the virtual-time metric in
// internal/obs), and a per-device queue-depth gauge. All gauge updates
// run on token-holding goroutines; the busy clocks are the only
// mutex-guarded state touched by workers, and they cost O(1) per
// operation in time and memory.
package ioengine

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// DefaultQueueDepth bounds each worker's request queue. Submissions
// beyond it block the submitting goroutine in wall-clock time until
// the worker drains; with the submit-then-await discipline every
// device op uses, depth is bounded by the number of live procs anyway.
const DefaultQueueDepth = 64

// ErrClosed is returned for operations submitted to a closed worker.
var ErrClosed = errors.New("ioengine: worker closed")

// ErrCancelled is returned for queued operations aborted by Cancel.
// Unlike ErrTimeout it carries no health consequence: the device is
// fine, the consumer just stopped wanting the work.
var ErrCancelled = errors.New("ioengine: op cancelled")

// Engine owns the device workers of one backend instance and
// aggregates their wall-clock activity.
type Engine struct {
	depth  int
	policy Policy
	flight *obs.FlightRecorder

	start time.Time // epoch of the busy clocks

	mu      sync.Mutex
	devs    map[string]*busyClock // device name -> its busy clock
	names   []string              // keys of devs, sorted
	union   busyClock             // busy while any device is
	workers []*Worker             // in creation order; same-name later wins
}

// busyClock accounts a set of possibly overlapping busy windows in
// O(1): active counts the open windows, since stamps when that count
// last rose from zero, and total sums the closed busy stretches. Its
// figure is the length of the windows' union, what sorting and merging
// every window would give.
type busyClock struct {
	active int
	since  time.Duration
	total  time.Duration
}

func (c *busyClock) begin(now time.Duration) {
	if c.active == 0 {
		c.since = now
	}
	c.active++
}

func (c *busyClock) end(now time.Duration) {
	c.active--
	if c.active == 0 {
		c.total += now - c.since
	}
}

// at returns the busy time up to now, an open stretch included.
func (c *busyClock) at(now time.Duration) time.Duration {
	if c.active > 0 {
		return c.total + now - c.since
	}
	return c.total
}

// New returns an engine whose workers queue up to depth requests
// (DefaultQueueDepth when depth <= 0), with the default fault policy
// (no deadline, device-layer retries enabled).
func New(depth int) *Engine {
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	return &Engine{depth: depth, policy: Policy{}.withDefaults(),
		start: time.Now(), devs: map[string]*busyClock{}}
}

// SetPolicy replaces the engine's fault policy. Call before creating
// workers; workers read the policy without locking.
func (e *Engine) SetPolicy(p Policy) { e.policy = p.withDefaults() }

// SetFlight attaches a flight recorder: workers record timeouts,
// health transitions and device-layer retries into it. Call before
// creating workers; like the policy, workers read it without locking.
// A nil recorder (the default) records nothing.
func (e *Engine) SetFlight(f *obs.FlightRecorder) { e.flight = f }

// opBegin opens a busy window of dev at the current wall time and
// returns that time, relative to the engine's epoch.
func (e *Engine) opBegin(dev *busyClock) time.Duration {
	e.mu.Lock()
	now := time.Since(e.start)
	e.beginAt(dev, now)
	e.mu.Unlock()
	return now
}

// opEnd closes a busy window of dev at the current wall time and
// returns that time.
func (e *Engine) opEnd(dev *busyClock) time.Duration {
	e.mu.Lock()
	now := time.Since(e.start)
	e.endAt(dev, now)
	e.mu.Unlock()
	return now
}

// beginAt and endAt move dev's and the union's clocks; e.mu must be
// held, and now must not run backwards across calls.
func (e *Engine) beginAt(dev *busyClock, now time.Duration) {
	dev.begin(now)
	e.union.begin(now)
}

func (e *Engine) endAt(dev *busyClock, now time.Duration) {
	dev.end(now)
	e.union.end(now)
}

// request is one queued operation. gen stamps the cancel generation at
// submission; the worker skips requests from generations that have
// since been cancelled.
type request struct {
	c   *sim.Completion
	op  func() error
	gen int64
}

// Worker is one device's I/O goroutine. Obtain it from Engine.Worker,
// submit through Do (or Submit/Await for split-phase use), and Close
// it when the device closes.
type Worker struct {
	e     *Engine
	name  string
	clock *busyClock // the device's busy clock, shared by same-name workers
	reqs  chan request
	done  chan struct{}

	// Health state: written only by the worker goroutine, read from
	// token-holding goroutines, so it lives in atomics. Metrics are
	// synced from these on the token side (the obs registry is
	// single-threaded).
	state    atomic.Int32 // Health
	consec   atomic.Int64 // consecutive deadline misses
	timeouts atomic.Int64 // total deadline misses

	// retries counts device-layer retries performed by Do. Written on
	// the token side but read by health snapshots from scrape
	// goroutines, so it is atomic.
	retries atomic.Int64

	// cancelGen is the cancel generation: Cancel bumps it, and the
	// worker aborts queued requests stamped with an older generation
	// without executing them. cancelCause holds the latest cause.
	cancelGen   atomic.Int64
	cancelCause atomic.Pointer[error]
	// cancelled counts operations aborted by Cancel, for tests and
	// leak accounting.
	cancelled atomic.Int64

	// Token-guarded (only ever touched while the submitting proc holds
	// the simulation's control token, which orders the accesses).
	queued      int
	closed      bool
	timeoutsPub int64 // timeouts already pushed to the counter
	rng         *rand.Rand
	gauge       *obs.Gauge
	healthGauge *obs.Gauge
	timeoutCtr  *obs.Counter
	retryCtr    *obs.Counter
}

// Worker creates a worker goroutine for the named device. Names are
// labels, not keys: a second worker with the same name is a distinct
// queue whose busy time merges into the same per-device clock — and a
// fresh worker starts Healthy, which is how replacement devices built
// after a trip escape their predecessor's breaker.
func (e *Engine) Worker(name string) *Worker {
	h := fnv.New64a()
	h.Write([]byte(name))
	w := &Worker{e: e, name: name, reqs: make(chan request, e.depth), done: make(chan struct{}),
		rng: rand.New(rand.NewSource(int64(h.Sum64())))}
	e.mu.Lock()
	w.clock = e.devs[name]
	if w.clock == nil {
		w.clock = &busyClock{}
		e.devs[name] = w.clock
		i, _ := slices.BinarySearch(e.names, name)
		e.names = slices.Insert(e.names, i, name)
	}
	e.workers = append(e.workers, w)
	e.mu.Unlock()
	go w.run()
	return w
}

// DeviceHealth is one worker's health snapshot, for live /health
// reporting.
type DeviceHealth struct {
	Device   string
	State    Health
	Timeouts int64
	Retries  int64
}

// DeviceHealths snapshots every device's current health, sorted by
// name. When a device was replaced after a breaker trip (a second
// worker under the same name), the newest worker's state wins — it is
// the device currently serving traffic. Safe from any goroutine.
func (e *Engine) DeviceHealths() []DeviceHealth {
	e.mu.Lock()
	workers := append([]*Worker(nil), e.workers...)
	e.mu.Unlock()
	byName := map[string]DeviceHealth{}
	var order []string
	for _, w := range workers {
		if _, ok := byName[w.name]; !ok {
			order = append(order, w.name)
		}
		byName[w.name] = DeviceHealth{
			Device: w.name, State: w.Health(),
			Timeouts: w.timeouts.Load(), Retries: w.retries.Load(),
		}
	}
	sort.Strings(order)
	out := make([]DeviceHealth, 0, len(order))
	for _, n := range order {
		out = append(out, byName[n])
	}
	return out
}

func (w *Worker) run() {
	defer close(w.done)
	for req := range w.reqs {
		if req.gen < w.cancelGen.Load() {
			// The request was queued before a Cancel: abort it without
			// touching the device. Health state is untouched — the
			// device did nothing wrong — and later-generation requests
			// are served normally, so the worker stays reusable.
			w.cancelled.Add(1)
			req.c.Post(0, w.cancelErr())
			continue
		}
		if Health(w.state.Load()) == Failed {
			// Breaker open: fail fast without touching the device (a
			// timed-out zombie op may still own its buffers).
			req.c.Post(0, fmt.Errorf("%s: %w", w.name, ErrDeviceFailed))
			continue
		}
		w.execute(req)
	}
}

// Cancel aborts every operation queued on the worker at the time of
// the call: each completes with ErrCancelled (wrapping cause, when
// non-nil) without reaching the device. The in-flight operation, if
// any, runs to completion. Cancellation never touches the health state
// machine or the breaker, and the worker keeps serving operations
// submitted after the call. Safe from any goroutine; a nil worker is a
// no-op.
func (w *Worker) Cancel(cause error) {
	if w == nil {
		return
	}
	if cause != nil {
		w.cancelCause.Store(&cause)
	}
	w.cancelGen.Add(1)
}

// Cancelled returns the number of queued operations aborted by Cancel.
func (w *Worker) Cancelled() int64 {
	if w == nil {
		return 0
	}
	return w.cancelled.Load()
}

// cancelErr builds the typed abort error for one cancelled request.
func (w *Worker) cancelErr() error {
	if p := w.cancelCause.Load(); p != nil {
		return fmt.Errorf("%s: %w: %w", w.name, ErrCancelled, *p)
	}
	return fmt.Errorf("%s: %w", w.name, ErrCancelled)
}

// CancelAll cancels the queued operations of every worker the engine
// has created (see Worker.Cancel). Safe from any goroutine.
func (e *Engine) CancelAll(cause error) {
	e.mu.Lock()
	workers := append([]*Worker(nil), e.workers...)
	e.mu.Unlock()
	for _, w := range workers {
		w.Cancel(cause)
	}
}

// Name returns the worker's device label.
func (w *Worker) Name() string { return w.name }

// Health returns the worker's current health state. Safe from any
// goroutine.
func (w *Worker) Health() Health {
	if w == nil {
		return Healthy
	}
	return Health(w.state.Load())
}

// Timeouts returns the number of operations that missed the deadline.
func (w *Worker) Timeouts() int64 {
	if w == nil {
		return 0
	}
	return w.timeouts.Load()
}

// Retries returns the number of device-layer retries Do performed.
func (w *Worker) Retries() int64 {
	if w == nil {
		return 0
	}
	return w.retries.Load()
}

// SetMetrics registers the worker's gauges and counters in reg (nil
// detaches): queue depth, health state, deadline misses, and
// device-layer retries. A nil worker (synchronous backend) is a no-op.
func (w *Worker) SetMetrics(reg *obs.Registry) {
	if w == nil {
		return
	}
	if reg == nil {
		w.gauge, w.healthGauge, w.timeoutCtr, w.retryCtr = nil, nil, nil, nil
		return
	}
	l := obs.A("device", w.name)
	w.gauge = reg.Gauge("iodev_queue_depth",
		"Requests queued or in flight on a device I/O worker.", l)
	w.healthGauge = reg.Gauge("iodev_health",
		"Device worker health: 0 healthy, 1 degraded, 2 failed.", l)
	w.timeoutCtr = reg.Counter("iodev_timeouts_total",
		"Operations that missed the per-op deadline.", l)
	w.retryCtr = reg.Counter("iodev_op_retries_total",
		"Device-layer retries after timeouts or transient errors.", l)
}

// syncMetrics publishes worker-side health state into the registry.
// Must run on a token-holding goroutine.
func (w *Worker) syncMetrics() {
	w.healthGauge.Set(float64(w.state.Load()))
	if t := w.timeouts.Load(); t > w.timeoutsPub {
		w.timeoutCtr.Add(float64(t - w.timeoutsPub))
		w.timeoutsPub = t
	}
}

// Submit enqueues op on the worker and returns its completion. The
// caller must hold the control token and must eventually Await the
// result through the same worker's Await (which maintains the queue
// gauge). Submission blocks in wall-clock time when the queue is full.
// On a closed worker or an open breaker the completion fails
// immediately with ErrClosed / ErrDeviceFailed through the normal
// completion path, so Await semantics hold for the caller.
func (w *Worker) Submit(p *sim.Proc, op func() error) *sim.Completion {
	c := p.StartIO(w.name)
	if w.closed {
		c.Post(0, notEnqueued{ErrClosed})
		return c
	}
	if Health(w.state.Load()) == Failed {
		c.Post(0, notEnqueued{fmt.Errorf("%s: %w", w.name, ErrDeviceFailed)})
		return c
	}
	w.queued++
	w.gauge.Set(float64(w.queued))
	w.reqs <- request{c: c, op: op, gen: w.cancelGen.Load()}
	return c
}

// Await reaps a completion submitted on this worker, yielding the
// token until the operation is done and its virtual time charged.
func (w *Worker) Await(p *sim.Proc, c *sim.Completion) (sim.Duration, error) {
	d, err := p.Await(c)
	var ne notEnqueued
	if !errors.As(err, &ne) {
		w.queued--
		w.gauge.Set(float64(w.queued))
	}
	w.syncMetrics()
	return d, err
}

// Do submits op and awaits it: the calling proc yields the control
// token while the worker performs the operation, so other procs (and
// other devices' workers) run meanwhile. Timed-out and transient
// failures are retried per the engine's RetryPolicy with exponential
// backoff plus deterministic jitter, charged as virtual time. Returns
// the total measured wall-clock duration, which Await has already
// charged to virtual time.
func (w *Worker) Do(p *sim.Proc, op func() error) (sim.Duration, error) {
	total, err := w.Await(p, w.Submit(p, op))
	pol := w.e.policy.Retry
	backoff := pol.Base
	for attempt := 0; attempt < pol.Max && w.retryable(err); attempt++ {
		p.Hold(backoff + w.jitter(backoff))
		w.retries.Add(1)
		w.retryCtr.Inc()
		w.e.flight.RecordV(p.Now(), "retry", w.name,
			fmt.Sprintf("device-layer retry %d after %v", attempt+1, err))
		d, e := w.Await(p, w.Submit(p, op))
		total += d
		err = e
		backoff *= 2
	}
	return total, err
}

// retryable reports whether Do should retry err at the device layer:
// deadline misses and transient faults, but never once the breaker has
// tripped — a Failed device gets no further traffic.
func (w *Worker) retryable(err error) bool {
	if err == nil || Health(w.state.Load()) == Failed {
		return false
	}
	return errors.Is(err, ErrTimeout) || fault.IsTransient(err)
}

// jitter derives a deterministic backoff perturbation in [0, b/2) from
// the worker's seeded source. Token-guarded like the other Do state.
func (w *Worker) jitter(b sim.Duration) sim.Duration {
	if b <= 1 {
		return 0
	}
	return sim.Duration(w.rng.Int63n(int64(b / 2)))
}

// Close stops the worker after draining queued requests and waits for
// it to exit. Safe to call twice and on a nil worker. The caller must
// ensure (by the submit-then-await discipline) that no submission
// races the close.
func (w *Worker) Close() {
	if w == nil || w.closed {
		return
	}
	w.closed = true
	close(w.reqs)
	<-w.done
}

// DeviceWall is one device's total wall-clock busy time: the time at
// least one of its workers was in an operation.
type DeviceWall struct {
	Device string
	Busy   time.Duration
}

// WallStats summarizes the engine's real-time device activity.
type WallStats struct {
	// PerDevice lists busy time per device that has been busy, sorted
	// by name.
	PerDevice []DeviceWall
	// Busy is the sum over devices of their busy time.
	Busy time.Duration
	// Union is the wall time during which at least one device was busy.
	Union time.Duration
}

// Overlap is the fraction of device busy time that ran concurrently
// with another device: (Busy − Union) / Busy. Zero when devices took
// strict turns — which is exactly what the pre-async file backend
// measured — approaching 1 as transfers fully overlap.
func (s WallStats) Overlap() float64 {
	if s.Busy <= 0 {
		return 0
	}
	return float64(s.Busy-s.Union) / float64(s.Busy)
}

// Sub returns the activity between an earlier snapshot prev of the
// same engine and s. Taken around a run with no operation in flight at
// either end, it is exactly that run's activity.
func (s WallStats) Sub(prev WallStats) WallStats {
	out := WallStats{Busy: s.Busy - prev.Busy, Union: s.Union - prev.Union}
	j := 0
	for _, d := range s.PerDevice {
		for j < len(prev.PerDevice) && prev.PerDevice[j].Device < d.Device {
			j++
		}
		if j < len(prev.PerDevice) && prev.PerDevice[j].Device == d.Device {
			d.Busy -= prev.PerDevice[j].Busy
		}
		if d.Busy > 0 {
			out.PerDevice = append(out.PerDevice, d)
		}
	}
	return out
}

// Publish exports the stats into reg as gauges, one busy-seconds
// series per device plus the overlap fraction. A nil registry is a
// no-op.
func (s WallStats) Publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, d := range s.PerDevice {
		reg.Gauge("iodev_wall_busy_seconds",
			"Wall-clock time the device's worker spent in OS I/O.",
			obs.A("device", d.Device)).Set(d.Busy.Seconds())
	}
	reg.Gauge("iodev_wall_overlap_fraction",
		"Fraction of wall-clock device busy time overlapped across devices.").Set(s.Overlap())
}

// WallStats snapshots the engine's wall-clock accounting: a copy of
// its counters, with any busy stretch still open counted up to now.
// Safe to call concurrently with workers.
func (e *Engine) WallStats() WallStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.statsAt(time.Since(e.start))
}

// statsAt builds the snapshot at engine time now; e.mu must be held.
func (e *Engine) statsAt(now time.Duration) WallStats {
	out := WallStats{Union: e.union.at(now)}
	for _, name := range e.names {
		if busy := e.devs[name].at(now); busy > 0 {
			out.PerDevice = append(out.PerDevice, DeviceWall{Device: name, Busy: busy})
			out.Busy += busy
		}
	}
	return out
}
