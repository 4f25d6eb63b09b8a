package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Time is a virtual timestamp measured in nanoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of virtual time. It aliases time.Duration so the
// usual constants (time.Second, ...) can be used directly.
type Duration = time.Duration

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string { return time.Duration(t).String() }

// procState tracks where a Proc is in its lifecycle.
type procState int

const (
	stateNew procState = iota
	stateReady
	stateRunning
	stateBlocked // waiting on a resource, container, queue or proc
	stateHolding // waiting for a scheduled clock event
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateBlocked:
		return "blocked"
	case stateHolding:
		return "holding"
	case stateDone:
		return "done"
	}
	return "invalid"
}

// Proc is a simulation process. A Proc's body function runs on its own
// goroutine but only while the kernel has handed it the control token,
// so at most one Proc executes at any wall-clock instant.
type Proc struct {
	k      *Kernel
	id     int
	name   string
	state  procState
	resume chan struct{}
	err    error
	slot   int // index in Kernel.procs while the proc is live

	// blockedOn and blockedName describe what the proc is blocked on:
	// a fixed kind prefix ("resource:", "wait:", ...) and the name of
	// the object waited on. deadlockError joins them; nothing else
	// formats them, so blocking never allocates a description.
	blockedOn   string
	blockedName string
	waiters     []*Proc // procs blocked in Wait on this proc

	// task is the state of a stackless transfer task (task.go); nil
	// for a proc with its own goroutine.
	task *task
}

// Name returns the name given to Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Err returns the error recorded for the process (a captured panic),
// or nil. Only meaningful after the process has finished.
func (p *Proc) Err() error { return p.err }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.state == stateDone }

// event is a scheduled wakeup for a holding process.
type event struct {
	t    Time
	seq  int64 // tie-break for determinism
	proc *Proc
}

// eventHeap is a binary min-heap of events ordered by (t, seq). It is
// typed, so pushes and pops never box an event the way container/heap
// does; (t, seq) pairs are unique, so the pop order is the same as any
// other correct heap's.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	s := append(*h, e)
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = event{} // drop the proc reference from the spare capacity
	s = s[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && s.less(r, m) {
			m = r
		}
		if !s.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// Kernel is a discrete-event simulation kernel. The zero value is not
// usable; call NewKernel.
type Kernel struct {
	now     Time
	events  eventHeap
	ready   []*Proc // runnable at the current time, FIFO
	yieldCh chan struct{}
	alive   int
	nextID  int
	nextSeq int64
	running bool
	current *Proc
	// procs holds the live goroutine-backed processes. A finished
	// proc leaves it; only an error it recorded is kept, in errs.
	procs []*Proc
	errs  []procErr

	// tasks holds every stackless task this kernel has allocated, and
	// taskFree the ones not in use (task.go). Both are bounded by the
	// peak number of concurrent transfers.
	tasks    []*Proc
	taskFree []*Proc

	// asyncState holds the external-completion plumbing (see async.go).
	asyncState

	// EventsProcessed counts kernel scheduling decisions, exposed for
	// tests and diagnostics.
	EventsProcessed int64
}

// procErr is the error a finished proc recorded, keyed by its spawn
// order so collectErrors reports errors in the order procs were
// spawned.
type procErr struct {
	id  int
	err error
}

// NewKernel returns a kernel with the clock at zero and no processes.
func NewKernel() *Kernel {
	return &Kernel{
		yieldCh:    make(chan struct{}),
		asyncState: asyncState{ioNotify: make(chan struct{}, 1)},
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Spawn creates a process named name whose body is fn and schedules it
// to run at the current virtual time. Spawn may be called before Run or
// from within a running process; it must not be called from a different
// goroutine while Run is active.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		k:      k,
		id:     k.nextID,
		name:   name,
		state:  stateReady,
		resume: make(chan struct{}),
		slot:   len(k.procs),
	}
	k.nextID++
	k.alive++
	k.procs = append(k.procs, p)
	k.ready = append(k.ready, p)
	go func() {
		<-p.resume
		defer k.finish(p)
		fn(p)
	}()
	return p
}

// finish runs on the process goroutine when the body returns or panics.
func (k *Kernel) finish(p *Proc) {
	if r := recover(); r != nil {
		p.err = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
		k.errs = append(k.errs, procErr{id: p.id, err: p.err})
	}
	last := k.procs[len(k.procs)-1]
	k.procs[p.slot], last.slot = last, p.slot
	k.procs[len(k.procs)-1] = nil
	k.procs = k.procs[:len(k.procs)-1]
	k.done(p)
	p.waiters = nil
	k.yieldCh <- struct{}{}
}

// done marks p finished and wakes the procs waiting on it.
func (k *Kernel) done(p *Proc) {
	p.state = stateDone
	k.alive--
	for _, w := range p.waiters {
		k.makeReady(w)
	}
}

// makeReady moves a blocked process to the ready queue at the current
// time. Only call with the control token held (i.e. from the running
// process or the kernel loop).
func (k *Kernel) makeReady(p *Proc) {
	if p.state == stateDone || p.state == stateReady {
		return
	}
	p.state = stateReady
	p.blockedOn, p.blockedName = "", ""
	k.ready = append(k.ready, p)
}

// blockOn marks p blocked on the object kind+name. The caller must
// have enqueued p where it will be woken from.
func (p *Proc) blockOn(kind, name string) {
	p.state = stateBlocked
	p.blockedOn, p.blockedName = kind, name
}

// block yields control to the kernel and waits to be resumed. The
// caller must have set p.state and enqueued p somewhere it will be
// woken from (event heap, resource waiters, ...).
func (p *Proc) block() {
	p.k.yieldCh <- struct{}{}
	<-p.resume
	p.state = stateRunning
}

// Hold advances the process by d of virtual time. Negative durations
// are treated as zero. Other processes run during the hold, which is
// how overlapping I/O on independent devices overlaps in virtual time.
func (p *Proc) Hold(d Duration) {
	p.k.schedule(p, d)
	p.block()
}

// schedule queues p's wakeup d of virtual time from now. Negative
// durations are treated as zero.
func (k *Kernel) schedule(p *Proc, d Duration) {
	if d < 0 {
		d = 0
	}
	k.nextSeq++
	k.events.push(event{t: k.now + Time(d), seq: k.nextSeq, proc: p})
	p.state = stateHolding
	p.blockedOn, p.blockedName = "hold", ""
}

// Wait blocks until other's body has returned. Waiting on a finished
// process returns immediately. Returns the other process's error.
func (p *Proc) Wait(other *Proc) error {
	if other.state != stateDone {
		other.waiters = append(other.waiters, p)
		p.blockOn("wait:", other.name)
		p.block()
	}
	return other.err
}

// WaitAll waits for every process in others, returning the first
// non-nil error encountered (all processes are still waited for).
func (p *Proc) WaitAll(others ...*Proc) error {
	var first error
	for _, o := range others {
		if err := p.Wait(o); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ErrDeadlock is wrapped by the error Run returns when live processes
// remain but none can make progress.
var ErrDeadlock = errors.New("sim: deadlock")

// Run drives the simulation until every process has finished. It
// returns an error if any process panicked or if the simulation
// deadlocks. Run must be called exactly once, from the goroutine that
// built the kernel.
func (k *Kernel) Run() error {
	if k.running {
		return errors.New("sim: Run called twice")
	}
	k.running = true
	for {
		// Integrate any external completions posted since the last
		// decision, so awaiting procs compete for the token as soon as
		// their I/O is done. No-op (and allocation-free) when the
		// backend never starts external operations.
		if k.ioPending > 0 {
			k.drainIO()
		}
		// Integrate a pending cancellation: publish the cause and abort
		// outstanding completions so io-blocked procs wake with it.
		if k.cancelPending.Load() {
			k.integrateCancel()
		}
		var p *Proc
		switch {
		case len(k.ready) > 0:
			p = k.ready[0]
			copy(k.ready, k.ready[1:])
			k.ready = k.ready[:len(k.ready)-1]
		case len(k.events) > 0:
			e := k.events.pop()
			if e.t < k.now {
				return fmt.Errorf("sim: time ran backwards: %v < %v", e.t, k.now)
			}
			k.now = e.t
			p = e.proc
		case k.ioPending > 0:
			// Every live proc is blocked and no event is pending, but
			// real I/O is in flight: wait for it in wall-clock time.
			// This is the moment independent device workers overlap.
			k.waitIO()
			continue
		case k.alive == 0:
			return k.collectErrors()
		default:
			return k.deadlockError()
		}
		if p.state == stateDone {
			continue
		}
		k.EventsProcessed++
		p.state = stateRunning
		if p.task != nil {
			k.step(p)
			continue
		}
		k.current = p
		p.resume <- struct{}{}
		<-k.yieldCh
		k.current = nil
	}
}

func (k *Kernel) collectErrors() error {
	sort.Slice(k.errs, func(i, j int) bool { return k.errs[i].id < k.errs[j].id })
	errs := make([]error, len(k.errs))
	for i, pe := range k.errs {
		errs[i] = pe.err
	}
	return errors.Join(errs...)
}

func (k *Kernel) deadlockError() error {
	var blocked []string
	for _, set := range [][]*Proc{k.procs, k.tasks} {
		for _, p := range set {
			if p.state != stateDone {
				blocked = append(blocked, fmt.Sprintf("%s(%s on %s%s)", p.name, p.state, p.blockedOn, p.blockedName))
			}
		}
	}
	sort.Strings(blocked)
	err := fmt.Errorf("%w at t=%v: %d processes stuck: %s",
		ErrDeadlock, k.now, len(blocked), strings.Join(blocked, ", "))
	if pe := k.collectErrors(); pe != nil {
		err = errors.Join(err, pe)
	}
	return err
}
