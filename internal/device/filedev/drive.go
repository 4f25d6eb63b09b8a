package filedev

import (
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/device/ioengine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Drive is a file-backed tape drive: the mounted medium's blocks live
// in a sequential spool file, reads and writes stream real bytes
// through the OS and charge their measured wall time, and head
// repositioning charges the profile's modeled seek latency.
//
// Transfers are planned under the control token (index updates,
// offset reservation) and executed on the drive's I/O worker while
// the proc yields, so independent drives' transfers overlap in
// wall-clock time.
type Drive struct {
	name string
	dev  string // "tape:<name>": the trace and fault device name
	k    *sim.Kernel
	cfg  device.DriveConfig
	res  *sim.Resource
	dir  string
	b    *Backend
	w    *ioengine.Worker // nil when the backend is synchronous

	m       device.Medium
	spool   *recFile
	pos     device.Addr
	reverse bool
	loadErr error

	inj    fault.Injector
	lost   bool
	shared *transport
	closed bool

	rec   *trace.Recorder
	met   driveMetrics
	stats device.DriveStats
}

var _ device.Drive = (*Drive)(nil)

// driveMetrics mirrors the simulator drive's exported series so
// dashboards and trace checks work unchanged across backends.
type driveMetrics struct {
	blocksRead    *obs.Counter
	blocksWritten *obs.Counter
	seeks         *obs.Counter
	latency       *obs.Histogram
}

// Name implements device.Drive.
func (d *Drive) Name() string { return d.name }

// Config implements device.Drive.
func (d *Drive) Config() device.DriveConfig { return d.cfg }

// Media implements device.Drive.
func (d *Drive) Media() device.Medium { return d.m }

// BusyTime implements device.Drive.
func (d *Drive) BusyTime() sim.Duration { return d.res.BusyTime }

// DriveStats implements device.Drive.
func (d *Drive) DriveStats() device.DriveStats { return d.stats }

// SetRecorder implements device.Drive.
func (d *Drive) SetRecorder(r *trace.Recorder) { d.rec = r }

// SetInjector implements device.Drive.
func (d *Drive) SetInjector(inj fault.Injector) { d.inj = inj }

// SetMetrics implements device.Drive.
func (d *Drive) SetMetrics(reg *obs.Registry) {
	d.w.SetMetrics(reg)
	if reg == nil {
		d.met = driveMetrics{}
		return
	}
	l := obs.A("drive", d.name)
	d.met = driveMetrics{
		blocksRead:    reg.Counter("tape_blocks_read_total", "Blocks read from tape.", l),
		blocksWritten: reg.Counter("tape_blocks_written_total", "Blocks written to tape.", l),
		seeks:         reg.Counter("tape_seeks_total", "Head repositioning seeks.", l),
		latency: reg.Histogram("tape_request_seconds",
			"Latency of tape requests, queueing included.", obs.DeviceLatencyBuckets, l),
	}
}

// Load implements device.Drive: it respools the medium's current
// contents into the drive's spool file, so the OS copy always matches
// the authoritative medium at mount time. The respool runs inline —
// a mount is not a transfer and charges no time — which is safe
// because the worker has no in-flight operations when the token
// holder can call Load. Spool errors surface on the first transfer
// (Load itself cannot fail, matching the simulator).
func (d *Drive) Load(m device.Medium) {
	d.m = m
	d.pos = 0
	d.reverse = false
	d.loadErr = nil
	if d.spool != nil {
		d.spool.close()
		d.spool = nil
	}
	if m == nil {
		return
	}
	spool, err := d.b.createRecFile(filepath.Join(d.dir, "spool-"+sanitize(m.Name())+".dat"))
	if err != nil {
		d.loadErr = fmt.Errorf("filedev: drive %q load: %w", d.name, err)
		return
	}
	if eod := int64(m.EOD()); eod > 0 {
		blks, err := m.ReadSetup(device.Region{Start: 0, N: eod})
		if err == nil {
			err = spool.appendRecords(0, blks)
		}
		if err == nil {
			spool.poisonBad(blks)
		}
		if err != nil {
			d.loadErr = fmt.Errorf("filedev: drive %q spool %q: %w", d.name, m.Name(), err)
			spool.close()
			return
		}
	}
	d.spool = spool
}

// ready rejects operations on an empty or failed drive.
func (d *Drive) ready() error {
	switch {
	case d.lost:
		return fmt.Errorf("filedev: drive %q: %w", d.name, fault.ErrDriveLost)
	case d.closed:
		return fmt.Errorf("filedev: drive %q is closed", d.name)
	case d.m == nil:
		return fmt.Errorf("filedev: drive %q has no cartridge", d.name)
	case d.loadErr != nil:
		return d.loadErr
	}
	return nil
}

// checkRead validates a read range against recorded data.
func (d *Drive) checkRead(addr device.Addr, n int64) error {
	if eod := d.m.EOD(); addr < 0 || n < 0 || addr+device.Addr(n) > eod {
		return fmt.Errorf("filedev: drive %q read [%d,%d) out of range [0,%d)",
			d.name, addr, addr+device.Addr(n), eod)
	}
	return nil
}

// switchIn claims a shared transport, forcing the next positioning to
// pay a full seek when the other logical drive used it last.
func (d *Drive) switchIn() {
	if d.shared == nil || d.shared.last == d {
		return
	}
	d.shared.last = d
	d.reverse = false
	d.pos = -1 // off-position: next request repositions
}

// consult asks the fault injector about one request while the drive
// is held, charging stalls and marking permanent transport loss. The
// injector's OS-level verdict, if any, is armed on the spool file so
// it strikes the planned syscalls on the worker.
func (d *Drive) consult(p *sim.Proc, write bool, addr device.Addr, n int64) (bool, error) {
	op := fault.Op{
		Device: d.dev, Write: write,
		Addr: int64(addr), N: n, Now: p.Now(),
	}
	dec := fault.Decide(d.inj, op)
	if dec.Stall > 0 {
		d.stats.Stalls++
		d.stats.StallTime += dec.Stall
		t0 := p.Now()
		p.Hold(dec.Stall)
		d.record(p, trace.Fault, t0, 0)
	}
	if dec.Err != nil {
		d.stats.InjectedFaults++
		if errors.Is(dec.Err, fault.ErrDriveLost) {
			d.lost = true
		}
		return false, fmt.Errorf("filedev: drive %q: %w", d.name, dec.Err)
	}
	if dec.Corrupt {
		d.stats.InjectedFaults++
	}
	if osd := fault.DecideOS(d.inj, op); !osd.Zero() {
		d.stats.InjectedFaults++
		d.spool.arm(osd)
	}
	return dec.Corrupt, nil
}

// record emits a trace event spanning [from, now].
func (d *Drive) record(p *sim.Proc, kind trace.Kind, from sim.Time, blocks int64) {
	d.rec.AddFor(p, trace.Event{
		Device: d.dev, Kind: kind,
		Start: from, End: p.Now(), Blocks: blocks,
	})
}

// seekTo charges the modeled reposition latency to addr. The spool
// file repositions for free; the transport this backend stands in for
// does not, so the profile's seek model is retained as virtual time.
func (d *Drive) seekTo(p *sim.Proc, addr device.Addr, wantReverse bool) {
	if addr == d.pos && d.reverse == wantReverse {
		return
	}
	if addr != d.pos {
		dist := int64(addr - d.pos)
		if dist < 0 {
			dist = -dist
		}
		if d.pos < 0 {
			dist = int64(addr) // off-position after a transport switch
		}
		st := d.cfg.SeekFixed + sim.Duration(dist)*d.cfg.SeekPerBlock
		if st > 0 {
			d.stats.Seeks++
			d.stats.SeekTime += st
			d.met.seeks.Inc()
			t0 := p.Now()
			p.Hold(st)
			d.record(p, trace.TapeSeek, t0, 0)
		}
		d.pos = addr
	}
	d.reverse = wantReverse
}

// transfer runs one planned spool operation through the drive's
// worker (or inline when synchronous) and charges its measured wall
// duration, updating the counters shared by every read/write path.
func (d *Drive) transfer(p *sim.Proc, kind trace.Kind, entered sim.Time, n int64, write bool, op func() error) error {
	tx := p.Now()
	elapsed, err := doIO(p, d.w, paced(d.b.pace(d.cfg.EffectiveRate(), n), op))
	switch {
	case errors.Is(err, ioengine.ErrDeviceFailed):
		// The worker's breaker tripped: the transport is gone for this
		// run. Surface it as a drive loss so the session's degrade path
		// rebuilds on a shared pair with fresh, healthy workers.
		d.lost = true
		return fmt.Errorf("filedev: drive %q: %w: %w", d.name, fault.ErrDriveLost, err)
	case errors.Is(err, ioengine.ErrClosed):
		return fmt.Errorf("filedev: drive %q: %w", d.name, err)
	case err != nil:
		return err
	}
	d.stats.TransferTime += elapsed
	d.stats.Requests++
	if write {
		d.stats.BlocksWritten += n
		d.met.blocksWritten.Add(float64(n))
	} else {
		d.stats.BlocksRead += n
		d.met.blocksRead.Add(float64(n))
	}
	d.record(p, kind, tx, n)
	d.met.latency.Observe(sim.Duration(p.Now() - entered).Seconds())
	return nil
}

// ReadAt implements device.Drive.
func (d *Drive) ReadAt(p *sim.Proc, addr device.Addr, n int64) ([]block.Block, error) {
	if err := d.ready(); err != nil {
		return nil, err
	}
	if err := d.checkRead(addr, n); err != nil {
		return nil, err
	}
	entered := p.Now()
	d.res.Acquire(p)
	defer d.res.Release(p)
	d.switchIn()
	corrupt, err := d.consult(p, false, addr, n)
	if err != nil {
		return nil, err
	}
	d.seekTo(p, addr, false)
	plan, err := d.spool.planRead(int64(addr), n)
	if err != nil {
		return nil, err
	}
	flipDelivered(plan, corrupt)
	if err := d.transfer(p, trace.TapeRead, entered, n, false, func() error {
		return d.spool.execReads(plan)
	}); err != nil {
		return nil, err
	}
	d.pos = addr + device.Addr(n)
	return assemble(plan), nil
}

// ReadRegion implements device.Drive.
func (d *Drive) ReadRegion(p *sim.Proc, r device.Region) ([]block.Block, error) {
	return d.ReadAt(p, r.Start, r.N)
}

// ReadRegionReverse implements device.Drive: the head positions at
// the region's end (free when already there) and streams backward;
// blocks return in forward order.
func (d *Drive) ReadRegionReverse(p *sim.Proc, r device.Region) ([]block.Block, error) {
	if err := d.ready(); err != nil {
		return nil, err
	}
	if !d.cfg.BiDirectional {
		return nil, fmt.Errorf("filedev: drive %q cannot read in reverse", d.name)
	}
	if err := d.checkRead(r.Start, r.N); err != nil {
		return nil, err
	}
	entered := p.Now()
	d.res.Acquire(p)
	defer d.res.Release(p)
	d.switchIn()
	corrupt, err := d.consult(p, false, r.Start, r.N)
	if err != nil {
		return nil, err
	}
	d.seekTo(p, r.End(), true)
	plan, err := d.spool.planRead(int64(r.Start), r.N)
	if err != nil {
		return nil, err
	}
	flipDelivered(plan, corrupt)
	if err := d.transfer(p, trace.TapeRead, entered, r.N, false, func() error {
		return d.spool.execReads(plan)
	}); err != nil {
		return nil, err
	}
	d.pos = r.Start
	return assemble(plan), nil
}

// Append implements device.Drive: the medium records the append (it
// stays authoritative for content and EOD), and the same bytes stream
// to the spool file for the measured transfer cost.
func (d *Drive) Append(p *sim.Proc, blks []block.Block) (device.Region, error) {
	if err := d.ready(); err != nil {
		return device.Region{}, err
	}
	entered := p.Now()
	d.res.Acquire(p)
	defer d.res.Release(p)
	d.switchIn()
	eod := d.m.EOD()
	if _, err := d.consult(p, true, eod, int64(len(blks))); err != nil {
		return device.Region{}, err
	}
	reg, err := d.m.AppendSetup(blks)
	if err != nil {
		return device.Region{}, err
	}
	d.seekTo(p, reg.Start, false)
	plan, err := d.spool.planAppend(int64(reg.Start), blks)
	if err != nil {
		return device.Region{}, err
	}
	if err := d.transfer(p, trace.TapeWrite, entered, reg.N, true, func() error {
		return d.spool.execWrites(plan)
	}); err != nil {
		return device.Region{}, err
	}
	d.pos = reg.End()
	return reg, nil
}

// WriteAt implements device.Drive: dual-write like Append, with the
// replaced records repointed in the spool index.
func (d *Drive) WriteAt(p *sim.Proc, addr device.Addr, blks []block.Block) error {
	if err := d.ready(); err != nil {
		return err
	}
	entered := p.Now()
	d.res.Acquire(p)
	defer d.res.Release(p)
	d.switchIn()
	if _, err := d.consult(p, true, addr, int64(len(blks))); err != nil {
		return err
	}
	if err := d.m.WriteSetup(addr, blks); err != nil {
		return err
	}
	d.seekTo(p, addr, false)
	plan, err := d.spool.planAppend(int64(addr), blks)
	if err != nil {
		return err
	}
	if err := d.transfer(p, trace.TapeWrite, entered, int64(len(blks)), true, func() error {
		return d.spool.execWrites(plan)
	}); err != nil {
		return err
	}
	d.pos = addr + device.Addr(len(blks))
	return nil
}

// Rewind implements device.Drive.
func (d *Drive) Rewind(p *sim.Proc) {
	d.res.Acquire(p)
	defer d.res.Release(p)
	d.switchIn()
	d.seekTo(p, 0, false)
}

// Close implements device.Drive: it stops the drive's I/O worker
// (draining any queued requests), releases the spool file, and
// removes the scratch directory. Safe to call more than once and
// after partial construction.
func (d *Drive) Close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	d.w.Close()
	var err error
	if d.spool != nil {
		err = d.spool.close()
		d.spool = nil
	}
	remove(d.dir)
	return err
}

// flipDelivered arms an injected delivery fault on one block of a
// planned read: its bytes are damaged after the syscall and before
// the frame check, so the read fails with device.ErrCorrupt while the
// stored copy stays intact and a re-read recovers.
func flipDelivered(plan []readOp, corrupt bool) {
	if corrupt && len(plan) > 0 {
		plan[len(plan)/2].flip = true
	}
}
