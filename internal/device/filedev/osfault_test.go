package filedev

// OS-level fault injection through the real-file backend: the same
// seeded -faults grammar that drives the device model strikes the
// syscall layer here, and the per-record CRC framing turns silent
// stored corruption into typed device.ErrCorrupt.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/tape"
)

// newStore builds a file-backed store on b with a small geometry.
func newStore(t *testing.T, b *Backend, k *sim.Kernel) device.Store {
	t.Helper()
	s, err := b.NewStore(k, device.StoreConfig{NumDisks: 2, BlocksPerDisk: 64, AggregateRate: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestStoreOSErrorRetriedByWorker injects a transient EIO at the
// syscall layer of a scratch read. The error wraps fault.ErrTransient,
// so the device worker's own retry loop absorbs it — the caller sees a
// clean read.
func TestStoreOSErrorRetriedByWorker(t *testing.T) {
	b := New(t.TempDir())
	k := sim.NewKernel()
	s := newStore(t, b, k)
	sched, err := fault.Parse("oserr=disk:0")
	if err != nil {
		t.Fatal(err)
	}
	s.SetInjector(sched)
	run(t, k, func(p *sim.Proc) {
		f, err := s.Create("scratch", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(p, mkBlocks(1, 4, 0)); err != nil {
			t.Fatal(err)
		}
		blks, err := f.ReadAt(p, 0, 4)
		if err != nil {
			t.Fatalf("read with retryable OS error: %v", err)
		}
		if len(blks) != 4 || keyOf(t, blks[2]) != 2 {
			t.Fatalf("payload after retry: %d blocks", len(blks))
		}
	})
	if s.DiskStats().Faults == 0 {
		t.Error("injected fault not counted in DiskStats")
	}
}

// TestStoreFlipStoredSurfacesErrCorrupt injects a bit-flip into the
// stored bytes of a scratch write (corrupt-on-write). The frame CRC
// captured at plan time no longer matches, so the read fails with
// typed device.ErrCorrupt instead of delivering wrong bytes.
func TestStoreFlipStoredSurfacesErrCorrupt(t *testing.T) {
	b := New(t.TempDir())
	k := sim.NewKernel()
	s := newStore(t, b, k)
	sched, err := fault.Parse("flip=disk:0")
	if err != nil {
		t.Fatal(err)
	}
	s.SetInjector(sched)
	run(t, k, func(p *sim.Proc) {
		f, err := s.Create("scratch", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(p, mkBlocks(1, 3, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ReadAt(p, 0, 3); !errors.Is(err, device.ErrCorrupt) {
			t.Fatalf("read of flipped record: %v, want device.ErrCorrupt", err)
		}
	})
}

// TestStoreCorruptOnReadSurfacesErrCorrupt flips a bit of the bytes
// crossing the read syscall (corrupt-on-read): the stored copy is
// intact, only this delivery is damaged — a later re-read succeeds,
// which is what makes ErrCorrupt worth retrying at the join layer.
func TestStoreCorruptOnReadSurfacesErrCorrupt(t *testing.T) {
	b := New(t.TempDir())
	k := sim.NewKernel()
	s := newStore(t, b, k)
	run(t, k, func(p *sim.Proc) {
		f, err := s.Create("scratch", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(p, mkBlocks(1, 3, 0)); err != nil {
			t.Fatal(err)
		}
		// Arm after the append so the flip strikes the read delivery.
		sched := (&fault.Schedule{}).AddFlipStored("disk", 0, 1)
		s.SetInjector(readFlipper{sched})
		if _, err := f.ReadAt(p, 0, 3); !errors.Is(err, device.ErrCorrupt) {
			t.Fatalf("read with flipped delivery: %v, want device.ErrCorrupt", err)
		}
		s.SetInjector(nil)
		blks, err := f.ReadAt(p, 0, 3)
		if err != nil || len(blks) != 3 {
			t.Fatalf("re-read after transient delivery corruption: %v", err)
		}
	})
}

// readFlipper adapts a flip= schedule so it fires on reads: the grammar
// scopes flip to writes (stored corruption), and this shim rewrites the
// op direction to model a damaged delivery instead.
type readFlipper struct{ s *fault.Schedule }

func (r readFlipper) Decide(op fault.Op) fault.Decision { return r.s.Decide(op) }
func (r readFlipper) DecideOS(op fault.Op) fault.OSDecision {
	op.Write = true
	return r.s.DecideOS(op)
}

// TestStoreTornWriteTruncatedTail tears the final record of a scratch
// file: only a prefix reaches the OS file, yet the write reports
// success. The short read of the truncated tail surfaces as typed
// device.ErrCorrupt.
func TestStoreTornWriteTruncatedTail(t *testing.T) {
	b := New(t.TempDir())
	k := sim.NewKernel()
	s := newStore(t, b, k)
	run(t, k, func(p *sim.Proc) {
		f, err := s.Create("scratch", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(p, mkBlocks(1, 2, 0)); err != nil {
			t.Fatal(err)
		}
		// Tear the final record: the file ends mid-payload.
		s.SetInjector((&fault.Schedule{}).AddTornWrite("disk", 2, 1))
		if err := f.Append(p, mkBlocks(1, 1, 100)); err != nil {
			t.Fatalf("torn write must report success: %v", err)
		}
		if _, err := f.ReadAt(p, 2, 1); !errors.Is(err, device.ErrCorrupt) {
			t.Fatalf("read of torn tail: %v, want device.ErrCorrupt", err)
		}
		// Earlier records are untouched.
		blks, err := f.ReadAt(p, 0, 2)
		if err != nil || len(blks) != 2 {
			t.Fatalf("read of intact prefix: %v", err)
		}
	})
}

// TestDriveOSFaults runs the same OS-level taxonomy through the tape
// spool: oserr is absorbed by device retries, flip on the spooled copy
// surfaces as device.ErrCorrupt.
func TestDriveOSFaults(t *testing.T) {
	b := New(t.TempDir())
	k := sim.NewKernel()
	d, err := b.NewDrive(k, "R", device.Ideal())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Load(tape.NewMedia("t1", 100))
	run(t, k, func(p *sim.Proc) {
		if _, err := d.Append(p, mkBlocks(1, 6, 0)); err != nil {
			t.Fatal(err)
		}
		sched, err := fault.Parse("oserr=R:1")
		if err != nil {
			t.Fatal(err)
		}
		d.SetInjector(sched)
		blks, err := d.ReadAt(p, 0, 6)
		if err != nil || len(blks) != 6 {
			t.Fatalf("read with retryable OS error: %v (%d blocks)", err, len(blks))
		}
		// A flip on the spool's stored copy: WriteAt repoints block 2 to
		// a fresh record whose stored bytes are damaged in flight.
		d.SetInjector((&fault.Schedule{}).AddFlipStored("tape:R", 2, 1))
		if err := d.WriteAt(p, 2, mkBlocks(2, 1, 200)); err != nil {
			t.Fatalf("flipped write must report success: %v", err)
		}
		if _, err := d.ReadAt(p, 2, 1); !errors.Is(err, device.ErrCorrupt) {
			t.Fatalf("read of flipped spool record: %v, want device.ErrCorrupt", err)
		}
	})
}

// TestStallTimeoutsTripBreaker wires a tight per-op deadline and a
// wall-clock stall through one store: the stalled attempt misses its
// deadline, the breaker trips, and the next operation fails fast with
// the device-loss error unit recovery reacts to. Device-layer retries
// are disabled — OS decisions are armed at plan time, so a retry runs
// clean and would heal the stall (that path is covered by
// TestStallRecoveredByRetry).
func TestStallTimeoutsTripBreaker(t *testing.T) {
	b := New(t.TempDir())
	b.OpTimeout = 5 * time.Millisecond
	b.TripAfter = 1
	b.RetryMax = -1
	k := sim.NewKernel()
	s := newStore(t, b, k)
	s.SetInjector((&fault.Schedule{}).AddWallStall("disk", 60*time.Millisecond, 50))
	run(t, k, func(p *sim.Proc) {
		f, err := s.Create("scratch", nil)
		if err != nil {
			t.Fatal(err)
		}
		err = f.Append(p, mkBlocks(1, 2, 0))
		if !errors.Is(err, device.ErrIOTimeout) {
			t.Fatalf("stalled append: %v, want device.ErrIOTimeout", err)
		}
		// The breaker is open now: the next operation never reaches the
		// stalled worker and surfaces the typed device-loss sentinel.
		err = f.Append(p, mkBlocks(1, 2, 0))
		if !errors.Is(err, fault.ErrDeviceLost) || !errors.Is(err, device.ErrDeviceFailed) {
			t.Fatalf("append after trip: %v, want ErrDeviceLost wrapping ErrDeviceFailed", err)
		}
	})
}

// TestStallRecoveredByRetry is the flip side of the breaker test: with
// the default retry policy, one stalled attempt times out, the retry
// re-runs the planned syscalls clean (the armed decision was consumed),
// and the operation — and the device's health — recover.
func TestStallRecoveredByRetry(t *testing.T) {
	b := New(t.TempDir())
	b.OpTimeout = 5 * time.Millisecond
	k := sim.NewKernel()
	s := newStore(t, b, k)
	s.SetInjector((&fault.Schedule{}).AddWallStall("disk", 30*time.Millisecond, 1))
	run(t, k, func(p *sim.Proc) {
		f, err := s.Create("scratch", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(p, mkBlocks(1, 2, 0)); err != nil {
			t.Fatalf("append with one stalled attempt: %v", err)
		}
		blks, err := f.ReadAt(p, 0, 2)
		if err != nil || len(blks) != 2 {
			t.Fatalf("read after recovered stall: %v", err)
		}
	})
}

// TestSyncPathIgnoresDeadlines confirms the synchronous escape hatch
// still works with OS faults armed: no worker, no watchdog, faults
// apply inline.
func TestSyncPathIgnoresDeadlines(t *testing.T) {
	b := New(t.TempDir())
	b.Synchronous = true
	b.OpTimeout = time.Millisecond
	k := sim.NewKernel()
	s := newStore(t, b, k)
	sched, err := fault.Parse("flip=disk:1")
	if err != nil {
		t.Fatal(err)
	}
	s.SetInjector(sched)
	run(t, k, func(p *sim.Proc) {
		f, err := s.Create("scratch", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(p, mkBlocks(1, 3, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ReadAt(p, 0, 3); !errors.Is(err, device.ErrCorrupt) {
			t.Fatalf("inline read of flipped record: %v, want device.ErrCorrupt", err)
		}
	})
}

// TestFrameCheckIsTheOneIntegrityCheck: on this backend the record
// frame CRC is the only checksum a read computes, so both kinds of
// damage the block checksum used to catch above it must fail the
// frame check with device.ErrCorrupt — a device-level corrupt=
// delivery flip, and a medium whose stored block was already bad when
// the drive spooled it at mount.
func TestFrameCheckIsTheOneIntegrityCheck(t *testing.T) {
	b := New(t.TempDir())
	k := sim.NewKernel()
	d, err := b.NewDrive(k, "R", biDirCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m := tape.NewMedia("t1", 100)
	if _, err := m.AppendSetup(mkBlocks(1, 6, 0)); err != nil {
		t.Fatal(err)
	}
	m.Corrupt(4)
	d.Load(m)
	run(t, k, func(p *sim.Proc) {
		if _, err := d.ReadAt(p, 3, 2); !errors.Is(err, device.ErrCorrupt) {
			t.Fatalf("read of a block stored bad on the medium: %v, want device.ErrCorrupt", err)
		}
		d.SetInjector((&fault.Schedule{}).AddCorrupt("tape:R", 1, 1))
		if _, err := d.ReadAt(p, 0, 3); !errors.Is(err, device.ErrCorrupt) {
			t.Fatalf("read with an injected delivery flip: %v, want device.ErrCorrupt", err)
		}
		if _, err := d.ReadRegionReverse(p, device.Region{Start: 0, N: 3}); err != nil {
			t.Fatalf("re-read after a delivery flip: %v", err)
		}
		blks, err := d.ReadAt(p, 0, 3)
		if err != nil || keyOf(t, blks[1]) != 1 {
			t.Fatalf("re-read: %v", err)
		}
	})
}
