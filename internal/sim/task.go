package sim

// This file adds stackless transfer tasks: kernel-run state machines
// for the fixed "acquire a device, hold it, release it" body that a
// striped device request would otherwise run on one helper process per
// drive. A task has no goroutine, channel or closure. It is a *Proc
// whose body the kernel steps inline, so it enters the ready queue,
// resource FIFOs and event heap exactly where a helper process would,
// and every tie-break — and so every virtual timestamp — is the same.
// Tasks are pooled per kernel and never enter Kernel.procs.
//
// Use a task for a body that only acquires one resource, holds it for
// a duration known up front and runs a non-blocking completion hook.
// Anything that branches on what it observes after blocking, blocks
// twice, or can fail needs a proc.

// Transfer is one device transfer run by a stackless task: acquire Res,
// hold it for Hold, call Done while still holding it, release Res.
type Transfer struct {
	Res  *Resource
	Hold Duration
	// Done observes the finished transfer; nil observes nothing.
	Done TransferDone
	// Blocks, Write and Span are carried to Done untouched.
	Blocks int64
	Write  bool
	Span   int64
}

// TransferDone observes a finished transfer. task is the stackless
// task that ran it (task.Now() is the end of the hold) and start the
// virtual time its hold began. TransferDone runs on the kernel and
// must not block.
type TransferDone interface {
	TransferDone(task *Proc, x *Transfer, start Time)
}

// task is the state of a stackless transfer task.
type task struct {
	x     Transfer
	phase taskPhase
	start Time
	next  *Proc // the next task started by the same RunTransfers
}

type taskPhase int

const (
	taskAcquire taskPhase = iota // first dispatch: take or queue for Res
	taskHold                     // holding Res from now: schedule the hold's end
	taskRelease                  // the hold ended: observe, release, finish
)

// RunTransfers runs xs concurrently, one stackless task each, and
// blocks p until every one has finished. The schedule is the one p
// would get by spawning one process per transfer, in order, each
// running Res.Acquire, Hold, Done and Res.Release, and then waiting
// for them in order. name names the tasks in deadlock reports. xs is
// copied before p first blocks, so callers may reuse it.
func (p *Proc) RunTransfers(name string, xs []Transfer) {
	k := p.k
	var head, tail *Proc
	for i := range xs {
		t := k.newTask(name, &xs[i])
		if tail == nil {
			head = t
		} else {
			tail.task.next = t
		}
		tail = t
	}
	for t := head; t != nil; t = t.task.next {
		p.Wait(t)
	}
	for t := head; t != nil; {
		next := t.task.next
		k.freeTask(t)
		t = next
	}
}

// newTask takes a task from the pool, loads x and queues it to run at
// the current time, as Spawn queues a new process.
func (k *Kernel) newTask(name string, x *Transfer) *Proc {
	var t *Proc
	if n := len(k.taskFree); n > 0 {
		t = k.taskFree[n-1]
		k.taskFree = k.taskFree[:n-1]
	} else {
		t = &Proc{k: k, task: &task{}}
		k.tasks = append(k.tasks, t)
	}
	t.name = name
	t.state = stateReady
	*t.task = task{x: *x}
	k.alive++
	k.ready = append(k.ready, t)
	return t
}

// freeTask returns a finished task to the pool. Its state stays
// stateDone, so deadlock reports skip it.
func (k *Kernel) freeTask(t *Proc) {
	*t.task = task{}
	t.name = ""
	k.taskFree = append(k.taskFree, t)
}

// step advances a dispatched task by one phase. Each phase does what
// the equivalent helper process would do between two blocking points.
func (k *Kernel) step(t *Proc) {
	tk := t.task
	switch tk.phase {
	case taskAcquire:
		if !tk.x.Res.acquireOrQueue(t) {
			// The releaser makes t ready already holding the unit.
			tk.phase = taskHold
			return
		}
		fallthrough
	case taskHold:
		tk.start = k.now
		tk.phase = taskRelease
		k.schedule(t, tk.x.Hold)
	case taskRelease:
		if tk.x.Done != nil {
			tk.x.Done.TransferDone(t, &tk.x, tk.start)
		}
		tk.x.Res.Release(t)
		k.done(t)
		clear(t.waiters)
		t.waiters = t.waiters[:0] // keep the capacity: the task is pooled
	}
}
