package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// recordDone is a TransferDone that logs each transfer's interval.
type recordDone struct{ log *[]string }

func (r recordDone) TransferDone(task *Proc, x *Transfer, start Time) {
	*r.log = append(*r.log, fmt.Sprintf("%s %s [%d,%d] n=%d", task.Name(), x.Res.Name(), start, task.Now(), x.Blocks))
}

// TestRunTransfersMatchesHelperProcs runs the same contended striped
// workload twice — once with one helper process per transfer, once
// with stackless tasks — and requires identical interval logs, end
// times, resource busy times and kernel step counts.
func TestRunTransfersMatchesHelperProcs(t *testing.T) {
	run := func(stackless bool) (log []string, end Time, busy []Duration, steps int64) {
		k := NewKernel()
		res := []*Resource{NewResource(k, "d0", 1), NewResource(k, "d1", 1), NewResource(k, "d2", 1)}
		done := recordDone{&log}
		for w := 0; w < 4; w++ {
			w := w
			k.Spawn(fmt.Sprintf("w%d", w), func(p *Proc) {
				for i := 0; i < 5; i++ {
					var xs []Transfer
					for d := 0; d < 3; d++ {
						if (w+i+d)%4 == 0 {
							continue // uneven striping: some requests skip a drive
						}
						xs = append(xs, Transfer{
							Res: res[d], Hold: time.Duration(1+(w*7+i*3+d)%5) * time.Second,
							Done: done, Blocks: int64(10*w + d),
						})
					}
					if stackless {
						p.RunTransfers(p.Name()+"-io", xs)
					} else {
						var kids []*Proc
						for _, x := range xs {
							x := x
							kids = append(kids, k.Spawn(p.Name()+"-io", func(c *Proc) {
								x.Res.Acquire(c)
								t0 := c.Now()
								c.Hold(x.Hold)
								done.TransferDone(c, &x, t0)
								x.Res.Release(c)
							}))
						}
						if err := p.WaitAll(kids...); err != nil {
							t.Error(err)
						}
					}
					p.Hold(time.Duration(w) * time.Second / 2)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			busy = append(busy, r.BusyTime)
		}
		return log, k.Now(), busy, k.EventsProcessed
	}
	procLog, procEnd, procBusy, procSteps := run(false)
	taskLog, taskEnd, taskBusy, taskSteps := run(true)
	if strings.Join(procLog, "\n") != strings.Join(taskLog, "\n") {
		t.Fatalf("interval logs differ:\nprocs:\n%s\ntasks:\n%s", strings.Join(procLog, "\n"), strings.Join(taskLog, "\n"))
	}
	if procEnd != taskEnd || procSteps != taskSteps {
		t.Fatalf("end %v / %d steps with procs, %v / %d with tasks", procEnd, procSteps, taskEnd, taskSteps)
	}
	for i := range procBusy {
		if procBusy[i] != taskBusy[i] {
			t.Fatalf("resource %d busy %v with procs, %v with tasks", i, procBusy[i], taskBusy[i])
		}
	}
}

// TestFinishedProcsLeaveKernel: a kernel that spawns and reaps procs
// forever (the resident daemon's) keeps only its live procs; a
// panicking proc's error still reaches Run.
func TestFinishedProcsLeaveKernel(t *testing.T) {
	k := NewKernel()
	var live int
	k.Spawn("parent", func(p *Proc) {
		for i := 0; i < 10000; i++ {
			c := k.Spawn("child", func(c *Proc) { c.Hold(time.Millisecond) })
			if err := p.Wait(c); err != nil {
				t.Error(err)
			}
		}
		live = len(k.procs)
		p.Wait(k.Spawn("bad", func(*Proc) { panic("boom") }))
	})
	err := k.Run()
	if live != 1 {
		t.Fatalf("after 10000 spawn-and-wait cycles the kernel holds %d procs, want 1 (the parent)", live)
	}
	if err == nil || !strings.Contains(err.Error(), `"bad" panicked: boom`) {
		t.Fatalf("Run error = %v, want the panicking proc's error", err)
	}
	if len(k.procs) != 0 {
		t.Fatalf("%d procs left after Run", len(k.procs))
	}
}

// TestCollectErrorsInSpawnOrder: errors are reported in spawn order,
// not finish order, as when finished procs stayed in the kernel.
func TestCollectErrorsInSpawnOrder(t *testing.T) {
	k := NewKernel()
	k.Spawn("first", func(p *Proc) { p.Hold(2 * time.Second); panic("late") })
	k.Spawn("second", func(p *Proc) { panic("early") })
	err := k.Run()
	if err == nil {
		t.Fatal("no error")
	}
	msg := err.Error()
	if i, j := strings.Index(msg, `"first"`), strings.Index(msg, `"second"`); i < 0 || j < 0 || i > j {
		t.Fatalf("errors not in spawn order: %q", msg)
	}
}

// TestDeadlockReportsStuckTask: a transfer task queued on a resource
// no one will release is named in the deadlock report, as a helper
// process was.
func TestDeadlockReportsStuckTask(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "disk0", 1)
	q := NewQueue[int](k, "never", 1)
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		q.Recv(p)
	})
	k.Spawn("io", func(p *Proc) {
		p.RunTransfers("f#0-io", []Transfer{{Res: r, Hold: time.Second}, {Res: NewResource(k, "disk1", 1), Hold: time.Second}})
	})
	err := k.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	for _, want := range []string{"f#0-io(blocked on resource:disk0)", "holder(blocked on queue-recv:never)", "io(blocked on wait:f#0-io)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock report %q lacks %q", err, want)
		}
	}
}

// The pins below hold the kernel's hot paths at zero allocations in
// steady state. They run inside a proc, so the kernel goroutine is
// parked and the measured allocations are the kernel's own.

func TestEventHeapZeroAlloc(t *testing.T) {
	var h eventHeap
	p := &Proc{}
	seq := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			seq++
			h.push(event{t: Time((i * 37) % 11), seq: seq, proc: p})
		}
		for len(h) > 0 {
			h.pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("event push/pop: %v allocs per run, want 0", allocs)
	}
}

func TestEventHeapOrder(t *testing.T) {
	var h eventHeap
	for i := 0; i < 200; i++ {
		h.push(event{t: Time((i * 7919) % 13), seq: int64(i)})
	}
	prev := h.pop()
	for len(h) > 0 {
		e := h.pop()
		if e.t < prev.t || (e.t == prev.t && e.seq < prev.seq) {
			t.Fatalf("popped (%v,%d) after (%v,%d)", e.t, e.seq, prev.t, prev.seq)
		}
		prev = e
	}
}

// runInProc runs body in a proc of a fresh kernel.
func runInProc(t *testing.T, body func(p *Proc)) {
	t.Helper()
	k := NewKernel()
	k.Spawn("measure", body)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunTransfersZeroAlloc(t *testing.T) {
	for _, n := range []int{2, 3} {
		runInProc(t, func(p *Proc) {
			xs := make([]Transfer, n)
			for i := range xs {
				xs[i] = Transfer{Res: NewResource(p.Kernel(), fmt.Sprintf("d%d", i), 1), Hold: time.Duration(i+1) * time.Millisecond}
			}
			allocs := testing.AllocsPerRun(100, func() { p.RunTransfers("f-io", xs) })
			if allocs != 0 {
				t.Errorf("RunTransfers over %d drives: %v allocs per run, want 0", n, allocs)
			}
		})
	}
}

// TestWaitOnBlockedZeroAlloc: waiting on an unfinished proc — here a
// transfer task queued behind a held resource — formats no
// description and allocates nothing.
func TestWaitOnBlockedZeroAlloc(t *testing.T) {
	runInProc(t, func(p *Proc) {
		k := p.Kernel()
		r := NewResource(k, "d0", 1)
		xs := []Transfer{{Res: r, Hold: time.Millisecond}}
		allocs := testing.AllocsPerRun(100, func() {
			r.Acquire(p)
			task := k.newTask("f-io", &xs[0])
			p.Hold(time.Millisecond) // the task runs and queues on r
			r.Release(p)
			p.Wait(task)
			k.freeTask(task)
		})
		if allocs != 0 {
			t.Errorf("Proc.Wait on a blocked task: %v allocs per run, want 0", allocs)
		}
	})
}

// BenchmarkHoldHandoff measures kernel dispatch: two procs alternate
// holds while contending for one resource.
func BenchmarkHoldHandoff(b *testing.B) {
	k := NewKernel()
	r := NewResource(k, "d", 1)
	for w := 0; w < 2; w++ {
		k.Spawn("w", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				r.Acquire(p)
				p.Hold(time.Millisecond)
				r.Release(p)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(k.EventsProcessed)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkRunTransfers measures a striped request over three drives
// run as stackless tasks.
func BenchmarkRunTransfers(b *testing.B) {
	k := NewKernel()
	xs := make([]Transfer, 3)
	for i := range xs {
		xs[i] = Transfer{Res: NewResource(k, fmt.Sprintf("d%d", i), 1), Hold: time.Millisecond}
	}
	k.Spawn("io", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.RunTransfers("f-io", xs)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(k.EventsProcessed)/b.Elapsed().Seconds(), "events/s")
}
