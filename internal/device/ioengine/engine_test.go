package ioengine

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestDoChargesAndReturns(t *testing.T) {
	e := New(0)
	k := sim.NewKernel()
	w := e.Worker("disk")
	defer w.Close()
	k.Spawn("p", func(p *sim.Proc) {
		d, err := w.Do(p, func() error { time.Sleep(3 * time.Millisecond); return nil })
		if err != nil {
			t.Errorf("Do: %v", err)
		}
		if d < 3*time.Millisecond {
			t.Errorf("measured %v, want >= 3ms", d)
		}
		if sim.Duration(p.Now()) != d {
			t.Errorf("virtual now %v != measured %v", p.Now(), d)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.WallStats()
	if len(st.PerDevice) != 1 || st.PerDevice[0].Device != "disk" || st.PerDevice[0].Busy < 3*time.Millisecond {
		t.Errorf("WallStats = %+v", st)
	}
}

func TestTwoWorkersOverlap(t *testing.T) {
	e := New(0)
	k := sim.NewKernel()
	wa, wb := e.Worker("tape:R"), e.Worker("disk")
	defer wa.Close()
	defer wb.Close()
	const d = 30 * time.Millisecond
	spawn := func(w *Worker) {
		k.Spawn(w.Name(), func(p *sim.Proc) {
			if _, err := w.Do(p, func() error { time.Sleep(d); return nil }); err != nil {
				t.Errorf("%s: %v", w.Name(), err)
			}
		})
	}
	spawn(wa)
	spawn(wb)
	t0 := time.Now()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(t0); wall > 2*d-5*time.Millisecond {
		t.Errorf("wall %v: workers did not overlap", wall)
	}
	st := e.WallStats()
	if st.Overlap() <= 0.2 {
		t.Errorf("wall overlap %.2f (busy %v union %v), want clearly > 0", st.Overlap(), st.Busy, st.Union)
	}
}

func TestSameWorkerSerializesFIFO(t *testing.T) {
	e := New(0)
	k := sim.NewKernel()
	w := e.Worker("tape:S")
	defer w.Close()
	var order []int
	k.Spawn("p", func(p *sim.Proc) {
		// Split-phase: two submissions in flight on one worker must
		// execute in submission order.
		c1 := w.Submit(p, func() error { order = append(order, 1); return nil })
		c2 := w.Submit(p, func() error { order = append(order, 2); return nil })
		if _, err := w.Await(p, c1); err != nil {
			t.Error(err)
		}
		if _, err := w.Await(p, c2); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("execution order %v, want [1 2]", order)
	}
}

func TestErrorAndClosedWorker(t *testing.T) {
	e := New(0)
	k := sim.NewKernel()
	w := e.Worker("disk")
	boom := errors.New("boom")
	k.Spawn("p", func(p *sim.Proc) {
		if _, err := w.Do(p, func() error { return boom }); !errors.Is(err, boom) {
			t.Errorf("err = %v, want boom", err)
		}
		w.Close()
		w.Close() // idempotent
		if _, err := w.Do(p, func() error { return nil }); !errors.Is(err, ErrClosed) {
			t.Errorf("err after close = %v, want ErrClosed", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueDepthGauge(t *testing.T) {
	e := New(0)
	k := sim.NewKernel()
	reg := obs.NewRegistry()
	w := e.Worker("disk")
	defer w.Close()
	w.SetMetrics(reg)
	gate := make(chan struct{})
	k.Spawn("p", func(p *sim.Proc) {
		c := w.Submit(p, func() error { <-gate; return nil })
		if v := reg.Gauge("iodev_queue_depth", "", obs.A("device", "disk")).Value(); v != 1 {
			t.Errorf("gauge during flight = %v, want 1", v)
		}
		close(gate)
		if _, err := w.Await(p, c); err != nil {
			t.Error(err)
		}
		if v := reg.Gauge("iodev_queue_depth", "", obs.A("device", "disk")).Value(); v != 0 {
			t.Errorf("gauge after await = %v, want 0", v)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	e.WallStats().Publish(reg)
	if v := reg.Gauge("iodev_wall_busy_seconds", "", obs.A("device", "disk")).Value(); v <= 0 {
		t.Errorf("published wall busy = %v, want > 0", v)
	}
}

// TestBusyClocksScripted drives the begin/end accounting with scripted
// times. One device's windows [0,10] [5,15] [20,30] [30,31] ms are 26 ms
// busy: overlaps and touching windows count once, as sorting and
// merging them would give.
func TestBusyClocksScripted(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	e := New(0)
	w := e.Worker("disk")
	defer w.Close()
	for _, step := range []struct {
		begin bool
		at    int
	}{{true, 0}, {true, 5}, {false, 10}, {false, 15}, {true, 20}, {false, 30}, {true, 30}, {false, 31}} {
		if step.begin {
			e.beginAt(w.clock, ms(step.at))
		} else {
			e.endAt(w.clock, ms(step.at))
		}
	}
	st := e.statsAt(ms(40))
	want := []DeviceWall{{Device: "disk", Busy: ms(26)}}
	if !slices.Equal(st.PerDevice, want) || st.Busy != ms(26) || st.Union != ms(26) {
		t.Errorf("stats = %+v, want disk 26ms busy, union 26ms", st)
	}
	if st.Overlap() != 0 {
		t.Errorf("one device overlaps itself: %v", st.Overlap())
	}
	if got := New(0).statsAt(ms(5)); got.Busy != 0 || got.Union != 0 || got.PerDevice != nil {
		t.Errorf("idle engine stats = %+v, want zero", got)
	}
}

// TestBusyClocksSameNameWorkers: two workers under one device name (a
// replacement device) share its clock, so their overlapping windows
// [0,10] and [5,15] count 15 ms for the device, not 20; a second
// device busy over [12,20] then overlaps 3 ms of it. A window still
// open counts up to the snapshot.
func TestBusyClocksSameNameWorkers(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	e := New(0)
	a, b, tp := e.Worker("disk"), e.Worker("disk"), e.Worker("tape:R")
	defer a.Close()
	defer b.Close()
	defer tp.Close()
	if a.clock != b.clock {
		t.Fatal("same-name workers do not share a clock")
	}
	e.beginAt(a.clock, ms(0))
	e.beginAt(b.clock, ms(5))
	e.endAt(a.clock, ms(10))
	e.beginAt(tp.clock, ms(12))
	e.endAt(b.clock, ms(15))
	e.endAt(tp.clock, ms(20))
	st := e.statsAt(ms(25))
	want := []DeviceWall{{Device: "disk", Busy: ms(15)}, {Device: "tape:R", Busy: ms(8)}}
	if !slices.Equal(st.PerDevice, want) || st.Busy != ms(23) || st.Union != ms(20) {
		t.Fatalf("stats = %+v, want disk 15ms, tape:R 8ms, union 20ms", st)
	}
	if got, want := st.Overlap(), 3.0/23; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("overlap = %v, want 3/23", got)
	}

	// Run-scoped figures: the difference of two snapshots.
	e.beginAt(tp.clock, ms(30))
	open := e.statsAt(ms(34))
	if open.Union != ms(24) || open.PerDevice[1].Busy != ms(12) {
		t.Errorf("open window not counted up to now: %+v", open)
	}
	e.endAt(tp.clock, ms(40))
	run := e.statsAt(ms(50)).Sub(st)
	want = []DeviceWall{{Device: "tape:R", Busy: ms(10)}}
	if !slices.Equal(run.PerDevice, want) || run.Busy != ms(10) || run.Union != ms(10) {
		t.Errorf("Sub = %+v, want tape:R alone, 10ms", run)
	}
}

// TestWallStatsDoNotGrowWithOps: the accounting is O(1) per operation,
// so a snapshot after many operations is one small copy.
func TestWallStatsDoNotGrowWithOps(t *testing.T) {
	e := New(0)
	w := e.Worker("disk")
	defer w.Close()
	k := sim.NewKernel()
	k.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			if _, err := w.Do(p, func() error { return nil }); err != nil {
				t.Error(err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if st := e.WallStats(); len(st.PerDevice) != 1 || st.PerDevice[0].Busy <= 0 || st.Union != st.Busy {
		t.Fatalf("stats = %+v, want disk busy alone", st)
	}
	if n := testing.AllocsPerRun(10, func() { e.WallStats() }); n > 1 {
		t.Errorf("WallStats allocates %v times, want at most 1", n)
	}
}

// BenchmarkSubmitComplete measures one empty operation's round trip
// through a worker: submit on the token side, execute and account on
// the worker goroutine, complete back to the awaiting proc.
func BenchmarkSubmitComplete(b *testing.B) {
	e := New(0)
	w := e.Worker("disk")
	defer w.Close()
	k := sim.NewKernel()
	op := func() error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	k.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := w.Do(p, op); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
