package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file extends the kernel with external completions: the bridge
// that lets a Proc hand a real (wall-clock) operation to a worker
// goroutine, yield the control token while the OS does the work, and
// be resumed deterministically when the worker posts the result.
//
// The protocol has three steps, split across two goroutines:
//
//  1. The proc, holding the control token, calls StartIO and hands the
//     returned Completion to a worker (typically through a channel).
//  2. The worker performs the operation off the token and calls Post
//     exactly once with the measured duration and error. Post never
//     blocks and never touches kernel state: it appends to a
//     mutex-guarded inbox and nudges a notification channel.
//  3. The proc calls Await, which yields the token until the kernel
//     loop has integrated the posted result, then charges the
//     operation's virtual time and returns.
//
// Integration happens only on the kernel goroutine: the Run loop
// drains the inbox before every scheduling decision, and blocks on the
// inbox (in wall-clock time) when no process is runnable, no event is
// pending, and completions are outstanding — that wall-clock wait is
// exactly where independent device workers overlap.
//
// Determinism: a simulation that never calls StartIO (the simdev
// backend) takes none of these paths, so its schedule is byte-
// identical to the pre-async kernel. With external completions the
// *virtual timestamps* inherit the measured wall durations — already
// nondeterministic by construction — but resumption still flows
// through the ordinary ready queue and event heap, so all ordering
// between procs remains a pure function of the virtual timestamps.

// Completion is the handle for one in-flight external operation
// performed on behalf of a Proc. Create it with Proc.StartIO, hand it
// to the worker that performs the operation, and reap it with
// Proc.Await. A Completion is single-use.
type Completion struct {
	k     *Kernel
	proc  *Proc
	desc  string
	start Time // virtual time of StartIO; the op occupies [start, start+d]

	// Written by the kernel goroutine when the posted result is
	// integrated; read by the proc after Await unblocks. The kernel's
	// token handoff orders these accesses.
	posted bool
	// aborted marks a completion the kernel cancelled before its worker
	// posted: the late Post is absorbed silently.
	aborted bool
	d       Duration
	err     error
	waiter  *Proc
}

// Aborted reports whether the kernel cancelled this completion before
// its worker posted. Valid after Await returns; ordered by the token.
func (c *Completion) Aborted() bool { return c.aborted }

// ioPost carries one worker-posted result into the kernel.
type ioPost struct {
	c   *Completion
	d   Duration
	err error
}

// StartIO registers an external operation started at the current
// virtual time on behalf of p and returns its Completion. Must be
// called while p holds the control token. Every StartIO must be paired
// with exactly one worker-side Post; Await is optional but without it
// the operation's duration is never charged to p.
func (p *Proc) StartIO(desc string) *Completion {
	k := p.k
	c := &Completion{k: k, proc: p, desc: desc, start: k.now}
	if k.cancelCause != nil {
		// Cancelled kernel: fail fast without reaching a worker. The
		// caller's Await returns the cause immediately, and the paired
		// Post (if the caller still hands the completion out) is
		// absorbed like any other late post.
		c.posted, c.aborted, c.err = true, true, k.cancelCause
		return c
	}
	k.ioPending++
	if k.ioOutstanding == nil {
		k.ioOutstanding = make(map[*Completion]struct{})
	}
	k.ioOutstanding[c] = struct{}{}
	return c
}

// Post delivers the operation's measured wall-clock duration and error.
// It is safe to call from any goroutine, never blocks, and must be
// called exactly once per Completion.
func (c *Completion) Post(d Duration, err error) {
	k := c.k
	k.ioMu.Lock()
	k.ioInbox = append(k.ioInbox, ioPost{c: c, d: d, err: err})
	k.ioMu.Unlock()
	select {
	case k.ioNotify <- struct{}{}:
	default:
	}
}

// Await blocks p until c's result has been posted and integrated, then
// advances the virtual clock so the operation spans [start, start+d]
// in virtual time — clamped to the present if other processes already
// pushed the clock past that end — and returns the measured duration
// and the worker's error. Must be called from p while it holds the
// control token.
func (p *Proc) Await(c *Completion) (Duration, error) {
	if c.proc != p {
		panic(fmt.Sprintf("sim: proc %q awaiting completion of %q", p.name, c.proc.name))
	}
	if !c.posted {
		c.waiter = p
		p.blockOn("io:", c.desc)
		p.block()
		if !c.posted {
			panic("sim: proc resumed before completion was integrated")
		}
	}
	if end := c.start + Time(c.d); end > p.k.now {
		p.Hold(Duration(end - p.k.now))
	}
	return c.d, c.err
}

// IOPending reports the number of outstanding external operations
// (started but not yet integrated).
func (k *Kernel) IOPending() int { return k.ioPending }

// asyncState is the kernel's external-completion plumbing, zero-cost
// when unused.
type asyncState struct {
	ioPending int // StartIO'd but not yet integrated
	ioMu      sync.Mutex
	ioInbox   []ioPost
	ioNotify  chan struct{} // cap 1; nudged by Post and Cancel
	// ioOutstanding tracks StartIO'd completions not yet integrated, so
	// integrateCancel can abort them. Kernel-goroutine/token-side only.
	ioOutstanding map[*Completion]struct{}

	// Cancellation plumbing (see cancel.go). cancelPending and
	// cancelReq carry the cross-goroutine request; cancelCause is the
	// integrated cause, written only on the kernel goroutine.
	cancelPending atomic.Bool
	cancelMu      sync.Mutex
	cancelReq     error
	cancelCause   error
}

// drainIO integrates every posted completion: record the result, count
// the operation done, and make any awaiting process ready. Returns the
// number integrated. Runs only on the kernel goroutine.
func (k *Kernel) drainIO() int {
	k.ioMu.Lock()
	posts := k.ioInbox
	k.ioInbox = nil
	k.ioMu.Unlock()
	for _, po := range posts {
		c := po.c
		if c.aborted {
			// The kernel cancelled this completion; the worker's post
			// arrives late and has already been accounted for.
			continue
		}
		if c.posted {
			panic(fmt.Sprintf("sim: completion %q posted twice", c.desc))
		}
		c.posted, c.d, c.err = true, po.d, po.err
		k.ioPending--
		delete(k.ioOutstanding, c)
		if c.waiter != nil {
			k.makeReady(c.waiter)
			c.waiter = nil
		}
	}
	return len(posts)
}

// waitIO blocks in wall-clock time until at least one posted
// completion has been integrated, or a cancellation request arrives.
// Runs only on the kernel goroutine, and only while ioPending > 0 (so
// a Post — or the cancel that aborts it — is guaranteed to arrive).
func (k *Kernel) waitIO() {
	for k.drainIO() == 0 {
		if k.cancelPending.Load() {
			return
		}
		<-k.ioNotify
	}
}
