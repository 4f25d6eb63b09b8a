package sim

import "fmt"

// Resource is a FIFO resource with fixed capacity, used to model device
// arms, buses and other units of mutual exclusion. Acquire blocks in
// virtual time until a unit is free; Release hands the unit to the
// longest-waiting process.
type Resource struct {
	k        *Kernel
	name     string
	capacity int
	inUse    int
	waiters  []*Proc

	// Accounting, exposed for device statistics.
	Acquisitions int64
	// BusyTime accumulates capacity-weighted busy virtual time. For a
	// capacity-1 resource it is exactly the total time the resource was
	// held.
	BusyTime   Duration
	lastChange Time
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(k *Kernel, name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource %q capacity %d < 1", name, capacity))
	}
	return &Resource{k: k, name: name, capacity: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// InUse reports the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

func (r *Resource) accrue() {
	now := r.k.now
	if r.inUse > 0 {
		r.BusyTime += Duration(now-r.lastChange) * Duration(r.inUse) / Duration(r.capacity)
	}
	r.lastChange = now
}

// Acquire obtains one unit of the resource, blocking FIFO until one is
// available.
func (r *Resource) Acquire(p *Proc) {
	if !r.acquireOrQueue(p) {
		p.block()
		// The releasing process already transferred the unit to us.
	}
}

// acquireOrQueue takes a unit for p if one is free and no one is
// queued ahead, reporting whether it did; otherwise it queues p, which
// the releasing process will make ready already holding the unit.
func (r *Resource) acquireOrQueue(p *Proc) bool {
	r.Acquisitions++
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.accrue()
		r.inUse++
		return true
	}
	r.waiters = append(r.waiters, p)
	p.blockOn("resource:", r.name)
	return false
}

// TryAcquire obtains a unit if one is immediately available and reports
// whether it did.
func (r *Resource) TryAcquire(p *Proc) bool {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.Acquisitions++
		r.accrue()
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit. If processes are waiting, the unit is
// transferred to the head waiter, which becomes runnable at the current
// virtual time.
func (r *Resource) Release(p *Proc) {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: release of idle resource %q", r.name))
	}
	if len(r.waiters) > 0 {
		// Transfer the unit: inUse is unchanged.
		w := r.waiters[0]
		copy(r.waiters, r.waiters[1:])
		r.waiters = r.waiters[:len(r.waiters)-1]
		r.k.makeReady(w)
		return
	}
	r.accrue()
	r.inUse--
}

// Use runs fn while holding one unit of the resource.
func (r *Resource) Use(p *Proc, fn func()) {
	r.Acquire(p)
	defer r.Release(p)
	fn()
}
