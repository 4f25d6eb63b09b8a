package filedev

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/device/ioengine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Store is file-backed disk scratch: every logical file is one OS
// file read and written at direct offsets, with the array geometry
// kept only for capacity accounting (NumDisks * BlocksPerDisk). Reads
// and writes charge their measured wall time; there is no seek model
// — that is what makes it a disk.
//
// All of the store's files share one I/O worker, so disk requests
// serialize against each other in wall-clock time (one array, one
// channel) but overlap with tape transfers. FIFO submission on the
// worker orders a file's planned writes before any later read of the
// same records.
type Store struct {
	k   *sim.Kernel
	cfg device.StoreConfig
	dir string
	b   *Backend
	w   *ioengine.Worker // nil when the backend is synchronous
	seq int

	used, high int64
	busy       sim.Duration
	stats      device.DiskStats
	closed     bool

	rec *trace.Recorder
	met storeMetrics
	inj fault.Injector
}

var _ device.Store = (*Store)(nil)

// storeMetrics mirrors the simulator array's exported series.
type storeMetrics struct {
	blocksRead    *obs.Counter
	blocksWritten *obs.Counter
	latency       *obs.Histogram
	used          *obs.Gauge
}

// Config implements device.Store.
func (s *Store) Config() device.StoreConfig { return s.cfg }

// TotalCapacity implements device.Store.
func (s *Store) TotalCapacity() int64 {
	return int64(s.cfg.NumDisks) * s.cfg.BlocksPerDisk
}

// Free implements device.Store.
func (s *Store) Free() int64 { return s.TotalCapacity() - s.used }

// Used implements device.Store.
func (s *Store) Used() int64 { return s.used }

// HighWater implements device.Store.
func (s *Store) HighWater() int64 { return s.high }

// ResetHighWater implements device.Store.
func (s *Store) ResetHighWater() { s.high = s.used }

// BusyTime implements device.Store.
func (s *Store) BusyTime() sim.Duration { return s.busy }

// DiskStats implements device.Store.
func (s *Store) DiskStats() device.DiskStats { return s.stats }

// DeadDisks implements device.Store: OS files do not lose platters.
func (s *Store) DeadDisks() []int { return nil }

// LiveDisks implements device.Store.
func (s *Store) LiveDisks() int { return s.cfg.NumDisks }

// SetRecorder implements device.Store.
func (s *Store) SetRecorder(r *trace.Recorder) { s.rec = r }

// SetInjector implements device.Store.
func (s *Store) SetInjector(inj fault.Injector) { s.inj = inj }

// SetMetrics implements device.Store.
func (s *Store) SetMetrics(reg *obs.Registry) {
	s.w.SetMetrics(reg)
	if reg == nil {
		s.met = storeMetrics{}
		return
	}
	s.met = storeMetrics{
		blocksRead:    reg.Counter("disk_blocks_read_total", "Blocks read from the disk array."),
		blocksWritten: reg.Counter("disk_blocks_written_total", "Blocks written to the disk array."),
		latency: reg.Histogram("disk_request_seconds",
			"Latency of disk requests.", obs.DeviceLatencyBuckets),
		used: reg.Gauge("disk_used_blocks", "Blocks currently allocated on the array."),
	}
}

// Create implements device.Store. placement is accepted for interface
// compatibility and ignored: OS files have no meaningful stripe
// placement.
func (s *Store) Create(name string, _ []int) (device.File, error) {
	if s.closed {
		return nil, fmt.Errorf("filedev: store is closed")
	}
	s.seq++
	path := filepath.Join(s.dir, fmt.Sprintf("%04d-%s.dat", s.seq, sanitize(name)))
	rf, err := s.b.createRecFile(path)
	if err != nil {
		return nil, err
	}
	return &File{s: s, name: name, rf: rf, path: path}, nil
}

// charge accounts n newly allocated blocks against capacity.
func (s *Store) charge(n int64) error {
	if s.used+n > s.TotalCapacity() {
		return fmt.Errorf("%w: need %d blocks, %d free", device.ErrDiskFull, n, s.Free())
	}
	s.used += n
	if s.used > s.high {
		s.high = s.used
	}
	s.met.used.Set(float64(s.used))
	return nil
}

// consult asks the fault injector about one file operation. The
// injector's OS-level verdict, if any, is armed on the file so it
// strikes the planned syscalls on the worker.
func (s *Store) consult(p *sim.Proc, name string, rf *recFile, write bool, off, n int64) (bool, error) {
	op := fault.Op{Device: "disk", Write: write, Addr: off, N: n, Now: p.Now()}
	dec := fault.Decide(s.inj, op)
	if dec.Stall > 0 {
		s.stats.Faults++
		s.stats.StallTime += dec.Stall
		t0 := p.Now()
		p.Hold(dec.Stall)
		s.rec.AddFor(p, trace.Event{Device: "disk", Kind: trace.Fault, Start: t0, End: p.Now(), Note: "stall"})
	}
	if dec.Err != nil {
		s.stats.Faults++
		return false, fmt.Errorf("filedev: file %q: %w", name, dec.Err)
	}
	if dec.Corrupt {
		s.stats.Faults++
	}
	if osd := fault.DecideOS(s.inj, op); !osd.Zero() {
		s.stats.Faults++
		rf.arm(osd)
	}
	return dec.Corrupt, nil
}

// transfer runs one planned file operation through the store's worker
// (or inline when synchronous) and charges its measured wall
// duration.
func (s *Store) transfer(p *sim.Proc, n int64, write bool, op func() error) error {
	tx := p.Now()
	elapsed, err := doIO(p, s.w, paced(s.b.pace(s.cfg.AggregateRate, n), op))
	switch {
	case errors.Is(err, ioengine.ErrDeviceFailed):
		// The shared disk worker's breaker tripped: all scratch is
		// unreachable. Surface it as a device loss so unit recovery
		// rebuilds the store (with a fresh worker) and re-stages.
		return fmt.Errorf("filedev: disk store: %w: %w", fault.ErrDeviceLost, err)
	case errors.Is(err, ioengine.ErrClosed):
		return fmt.Errorf("filedev: disk store: %w", err)
	case err != nil:
		return err
	}
	s.busy += elapsed
	s.stats.Requests++
	s.stats.TransferTime += elapsed
	if write {
		s.stats.BlocksWritten += n
		s.met.blocksWritten.Add(float64(n))
	} else {
		s.stats.BlocksRead += n
		s.met.blocksRead.Add(float64(n))
	}
	s.rec.AddFor(p, trace.Event{
		Device: "disk", Kind: kindOf(write),
		Start: tx, End: p.Now(), Blocks: n,
	})
	s.met.latency.Observe(sim.Duration(p.Now() - tx).Seconds())
	return nil
}

func kindOf(write bool) trace.Kind {
	if write {
		return trace.DiskWrite
	}
	return trace.DiskRead
}

// Close implements device.Store: it stops the store's I/O worker and
// removes the scratch directory. Safe to call more than once and
// after partial construction.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.w.Close()
	remove(s.dir)
	return nil
}

// File is one OS-file-backed scratch file.
type File struct {
	s     *Store
	name  string
	rf    *recFile
	path  string
	freed bool
}

var _ device.File = (*File)(nil)

// Name implements device.File.
func (f *File) Name() string { return f.name }

// Len implements device.File.
func (f *File) Len() int64 { return int64(len(f.rf.index)) }

// Lost implements device.File: OS-backed files do not lose extents.
func (f *File) Lost() bool { return false }

// Append implements device.File. Operating on a freed file is an
// error, not a panic: recovery paths that lose a race with cleanup
// must be able to degrade through the join's retry machinery.
func (f *File) Append(p *sim.Proc, blks []block.Block) error {
	if f.freed {
		return fmt.Errorf("filedev: append to %q: %w", f.name, ErrFreed)
	}
	n := int64(len(blks))
	corrupt, err := f.s.consult(p, f.name, f.rf, true, f.Len(), n)
	if err != nil {
		return err
	}
	if err := f.s.charge(n); err != nil {
		return err
	}
	plan, err := f.rf.planAppend(f.Len(), blks)
	if err != nil {
		return err
	}
	if err := f.s.transfer(p, n, true, func() error {
		return f.rf.execWrites(plan)
	}); err != nil {
		return err
	}
	_ = corrupt // stored-copy corruption is surfaced on read
	return nil
}

// ReadAt implements device.File: out-of-range requests fail with a
// typed error rather than an OS short read, and freed files return
// ErrFreed.
func (f *File) ReadAt(p *sim.Proc, off, n int64) ([]block.Block, error) {
	if f.freed {
		return nil, fmt.Errorf("filedev: read from %q: %w", f.name, ErrFreed)
	}
	if off < 0 || n < 0 || off+n > f.Len() {
		return nil, fmt.Errorf("filedev: read [%d,%d) beyond len %d of %q", off, off+n, f.Len(), f.name)
	}
	corrupt, err := f.s.consult(p, f.name, f.rf, false, off, n)
	if err != nil {
		return nil, err
	}
	plan, err := f.rf.planRead(off, n)
	if err != nil {
		return nil, err
	}
	flipDelivered(plan, corrupt)
	if err := f.s.transfer(p, n, false, func() error {
		return f.rf.execReads(plan)
	}); err != nil {
		return nil, err
	}
	return assemble(plan), nil
}

// Free implements device.File.
func (f *File) Free() {
	if f.freed {
		return
	}
	f.freed = true
	f.s.used -= f.Len()
	f.s.met.used.Set(float64(f.s.used))
	f.rf.close()
	if f.path != "" {
		os.Remove(f.path)
	}
}
