package tape

import (
	"fmt"
	"time"

	"repro/internal/block"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DriveConfig sets the performance model of a simulated tape drive.
type DriveConfig struct {
	// NativeRate is the sustained transfer rate in bytes per second at
	// compression factor 1.0.
	NativeRate float64
	// CompressionFactor scales the effective rate: data that is 25%
	// compressible streams ~1.33x faster, 50% compressible ~2x faster
	// (Section 9 of the paper). Must be >= 1.
	CompressionFactor float64
	// SeekFixed is the fixed component of a repositioning seek
	// (locate command issue, head settle).
	SeekFixed sim.Duration
	// SeekPerBlock is the distance-dependent seek component per block
	// of travel. On serpentine drives long files rewind fast, so this
	// is small but nonzero.
	SeekPerBlock sim.Duration
	// StartStopPenalty is charged when a sequential transfer resumes
	// after the drive has stopped streaming. The paper's model assumes
	// the drive buffer hides these (zero); the calibrated DLT-4000
	// profile charges them.
	StartStopPenalty sim.Duration
	// StartStopHide is the longest idle gap the drive's internal
	// read-ahead buffer absorbs; only gaps beyond it break streaming
	// and incur StartStopPenalty (the Section 3.2 assumption that
	// "the tape drive has enough buffer memory to hide these delays",
	// bounded by a real buffer size).
	StartStopHide sim.Duration
	// ExchangeTime is the robot media-exchange delay charged when a
	// request moves the head to a different cartridge of a
	// MultiVolume medium (the paper's ~30 s per exchange, Section
	// 3.2).
	ExchangeTime sim.Duration
	// BiDirectional enables ReadReverse: reading toward the beginning
	// of tape without repositioning, the optional SCSI READ REVERSE
	// of the paper's footnote 2.
	BiDirectional bool
}

// EffectiveRate returns bytes/second after compression scaling.
func (c DriveConfig) EffectiveRate() float64 { return c.NativeRate * c.CompressionFactor }

// Validate reports configuration errors.
func (c DriveConfig) Validate() error {
	if c.NativeRate <= 0 {
		return fmt.Errorf("tape: NativeRate %v <= 0", c.NativeRate)
	}
	if c.CompressionFactor < 1 {
		return fmt.Errorf("tape: CompressionFactor %v < 1", c.CompressionFactor)
	}
	if c.SeekFixed < 0 || c.SeekPerBlock < 0 || c.StartStopPenalty < 0 ||
		c.StartStopHide < 0 || c.ExchangeTime < 0 {
		return fmt.Errorf("tape: negative delay in config")
	}
	return nil
}

// DLT4000 returns a drive profile calibrated against the paper's
// experimental platform (Quantum DLT-4000, 20 GB mode). The native
// rate is chosen so that 25%-compressible data streams at ~1.676 MB/s,
// which reproduces the bare-read times of Table 3.
func DLT4000() DriveConfig {
	return DriveConfig{
		NativeRate:        1.257e6,
		CompressionFactor: 1.33,
		SeekFixed:         20 * time.Second,
		SeekPerBlock:      150 * time.Microsecond, // ~48 s across a full 20 GB tape
		StartStopPenalty:  1500 * time.Millisecond,
		StartStopHide:     2 * time.Second,
		ExchangeTime:      30 * time.Second,
	}
}

// Ideal returns a drive profile implementing the paper's simplified
// cost model exactly: pure transfer cost, no seeks, no stop/start
// penalties, free media exchanges. Rate matches DLT4000 at the same
// compression factor.
func Ideal() DriveConfig {
	return DriveConfig{NativeRate: 1.257e6, CompressionFactor: 1.33}
}

// DriveStats accumulates device activity for a run.
type DriveStats struct {
	BlocksRead    int64
	BlocksWritten int64
	Requests      int64
	Seeks         int64
	SeekTime      sim.Duration
	TransferTime  sim.Duration
	StartStops    int64
	StartStopTime sim.Duration
	Exchanges     int64
	ExchangeTime  sim.Duration
	// Fault-injection activity (see internal/fault).
	Stalls         int64
	StallTime      sim.Duration
	InjectedFaults int64
}

// Drive is a simulated tape drive. A drive serves one request at a
// time (FIFO): concurrent processes sharing a drive serialize on it,
// which is how read/append contention on one cartridge costs time.
type Drive struct {
	name  string
	dev   string // "tape:<name>": the trace and fault device name
	k     *sim.Kernel
	cfg   DriveConfig
	res   *sim.Resource
	media Medium

	pos     Addr     // head position
	curVol  int      // cartridge currently in the drive
	lastEnd sim.Time // virtual time the last transfer finished
	started bool     // at least one transfer has run
	reverse bool     // head is oriented for reverse reading

	inj    fault.Injector // optional fault schedule
	lost   bool           // an injected drive failure killed the transport
	shared *transport     // non-nil when two drives share one transport

	rec   *trace.Recorder
	met   driveMetrics
	Stats DriveStats
}

// driveMetrics are the per-drive series exported to an obs.Registry.
// The handles are nil-safe, so instrumentation calls unconditionally.
type driveMetrics struct {
	blocksRead    *obs.Counter
	blocksWritten *obs.Counter
	seeks         *obs.Counter
	exchanges     *obs.Counter
	latency       *obs.Histogram
}

// NewDrive returns a drive attached to the kernel with the given
// profile and no cartridge loaded.
func NewDrive(k *sim.Kernel, name string, cfg DriveConfig) *Drive {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	dev := "tape:" + name
	return &Drive{name: name, dev: dev, k: k, cfg: cfg, res: sim.NewResource(k, dev, 1)}
}

// Name returns the drive name.
func (d *Drive) Name() string { return d.name }

// Config returns the drive profile.
func (d *Drive) Config() DriveConfig { return d.cfg }

// Media returns the mounted medium, or nil.
func (d *Drive) Media() Medium { return d.media }

// Load mounts a medium and positions the head at block 0. The paper
// assumes tapes are loaded before the join begins, so Load costs no
// virtual time.
func (d *Drive) Load(m Medium) {
	d.media = m
	d.pos = 0
	d.curVol = 0
	d.started = false
	d.reverse = false
}

// SetRecorder attaches an event recorder (nil disables tracing).
func (d *Drive) SetRecorder(r *trace.Recorder) { d.rec = r }

// SetMetrics registers this drive's counters and request-latency
// histogram in reg (nil detaches).
func (d *Drive) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		d.met = driveMetrics{}
		return
	}
	l := obs.A("drive", d.name)
	d.met = driveMetrics{
		blocksRead:    reg.Counter("tape_blocks_read_total", "Blocks read from tape.", l),
		blocksWritten: reg.Counter("tape_blocks_written_total", "Blocks written to tape.", l),
		seeks:         reg.Counter("tape_seeks_total", "Head repositioning seeks.", l),
		exchanges:     reg.Counter("tape_exchanges_total", "Robot cartridge exchanges.", l),
		latency: reg.Histogram("tape_request_seconds",
			"Virtual latency of tape requests, queueing included.", obs.DeviceLatencyBuckets, l),
	}
}

// observe records a completed request's latency, measured from entry
// (queueing on the drive included) to completion.
func (d *Drive) observe(p *sim.Proc, t0 sim.Time) {
	d.met.latency.Observe(sim.Duration(p.Now() - t0).Seconds())
}

// record emits a trace event spanning [from, now], stamped with the
// issuing process's phase span.
func (d *Drive) record(p *sim.Proc, kind trace.Kind, from sim.Time, blocks int64) {
	d.rec.AddFor(p, trace.Event{
		Device: d.dev, Kind: kind,
		Start: from, End: p.Now(), Blocks: blocks,
	})
}

// BusyTime returns total virtual time the drive was held.
func (d *Drive) BusyTime() sim.Duration { return d.res.BusyTime }

// TransferTime returns the virtual time for moving n blocks at the
// effective rate.
func (d *Drive) TransferTime(n int64) sim.Duration {
	bytes := float64(n) * block.VirtualSize
	return sim.Duration(bytes / d.cfg.EffectiveRate() * float64(time.Second))
}

// exchangeTo swaps cartridges when addr lives on a different volume,
// charging the robot exchange delay.
func (d *Drive) exchangeTo(p *sim.Proc, addr Addr) {
	vol := d.media.volumeOf(addr)
	if vol == d.curVol {
		return
	}
	if d.cfg.ExchangeTime > 0 {
		t0 := p.Now()
		p.Hold(d.cfg.ExchangeTime)
		d.record(p, trace.TapeExchange, t0, 0)
	}
	d.Stats.Exchanges++
	d.Stats.ExchangeTime += d.cfg.ExchangeTime
	d.met.exchanges.Inc()
	d.curVol = vol
	// A fresh cartridge starts at its first block.
	d.pos = d.media.volumeSpan(vol).Start
	d.started = false
}

// seekWithin charges a head repositioning within the current volume.
func (d *Drive) seekWithin(p *sim.Proc, addr Addr) {
	if addr == d.pos {
		return
	}
	dist := int64(addr - d.pos)
	if dist < 0 {
		dist = -dist
	}
	st := d.cfg.SeekFixed + sim.Duration(dist)*d.cfg.SeekPerBlock
	if st > 0 {
		d.Stats.Seeks++
		d.Stats.SeekTime += st
		d.met.seeks.Inc()
		t0 := p.Now()
		p.Hold(st)
		d.record(p, trace.TapeSeek, t0, 0)
	}
	d.pos = addr
}

// position moves the head to addr (exchanging cartridges if needed)
// and charges a stop/start penalty when a forward stream resumes after
// an idle gap the drive buffer cannot hide.
func (d *Drive) position(p *sim.Proc, addr Addr, wantReverse bool) {
	d.exchangeTo(p, addr)
	if addr != d.pos || d.reverse != wantReverse {
		d.seekWithin(p, addr)
		d.reverse = wantReverse
		return
	}
	if d.started && d.cfg.StartStopPenalty > 0 &&
		p.Now() > d.lastEnd+sim.Time(d.cfg.StartStopHide) {
		d.Stats.StartStops++
		d.Stats.StartStopTime += d.cfg.StartStopPenalty
		p.Hold(d.cfg.StartStopPenalty)
	}
}

// transferSegments walks the volume-contiguous segments of [addr,
// addr+n), charging exchanges between them and the transfer time of
// each.
func (d *Drive) transferSegments(p *sim.Proc, addr Addr, n int64, kind trace.Kind) {
	for n > 0 {
		d.position(p, addr, false)
		span := d.media.volumeSpan(d.curVol)
		take := n
		if rest := int64(span.End() - addr); take > rest {
			take = rest
		}
		t := d.TransferTime(take)
		t0 := p.Now()
		p.Hold(t)
		d.record(p, kind, t0, take)
		d.Stats.TransferTime += t
		addr += Addr(take)
		n -= take
		d.pos = addr
		d.lastEnd = p.Now()
		d.started = true
	}
}

// checkRead validates a read request against the mounted medium: the
// requested range must lie entirely within recorded data. Returning a
// typed error here (rather than trusting the medium to reject it)
// keeps out-of-range requests from reaching the positioning model,
// and gives file-backed drives the same contract without relying on
// OS short-read behavior.
func (d *Drive) checkRead(addr Addr, n int64) error {
	if d.media == nil {
		return fmt.Errorf("tape: drive %q has no cartridge", d.name)
	}
	if eod := d.media.EOD(); addr < 0 || n < 0 || addr+Addr(n) > eod {
		return fmt.Errorf("tape: drive %q read [%d,%d) out of range [0,%d)",
			d.name, addr, addr+Addr(n), eod)
	}
	return nil
}

// ReadAt reads n blocks starting at addr, holding the drive for
// seeks, exchanges and transfer time, and returns the block data.
func (d *Drive) ReadAt(p *sim.Proc, addr Addr, n int64) ([]block.Block, error) {
	if err := d.checkRead(addr, n); err != nil {
		return nil, err
	}
	t0 := p.Now()
	d.res.Acquire(p)
	defer d.res.Release(p)
	d.switchIn(p)
	corrupt, err := d.consult(p, false, addr, n)
	if err != nil {
		return nil, err
	}
	data, err := d.media.read(addr, n)
	if err != nil {
		return nil, err
	}
	d.transferSegments(p, addr, n, trace.TapeRead)
	d.Stats.Requests++
	d.Stats.BlocksRead += n
	d.met.blocksRead.Add(float64(n))
	d.observe(p, t0)
	return deliver(data, corrupt)
}

// ReadRegion reads an entire region.
func (d *Drive) ReadRegion(p *sim.Proc, r Region) ([]block.Block, error) {
	return d.ReadAt(p, r.Start, r.N)
}

// ReadRegionReverse reads a region while the head travels backward,
// avoiding the repositioning seek when the head already sits at the
// region's end — the paper's footnote-2 optimization for algorithms
// that are independent of scan direction. The blocks are returned in
// forward order. Requires a BiDirectional drive.
func (d *Drive) ReadRegionReverse(p *sim.Proc, r Region) ([]block.Block, error) {
	if err := d.checkRead(r.Start, r.N); err != nil {
		return nil, err
	}
	if !d.cfg.BiDirectional {
		return nil, fmt.Errorf("tape: drive %q cannot read in reverse", d.name)
	}
	t0 := p.Now()
	d.res.Acquire(p)
	defer d.res.Release(p)
	d.switchIn(p)
	corrupt, err := d.consult(p, false, r.Start, r.N)
	if err != nil {
		return nil, err
	}
	data, err := d.media.read(r.Start, r.N)
	if err != nil {
		return nil, err
	}
	// Reverse reading starts at the region's end: position there
	// (free when the head is already there) and stream backward.
	end := r.End()
	d.exchangeTo(p, end)
	if d.pos != end || !d.reverse {
		// Turning around is free on a serpentine drive; moving isn't.
		if d.pos != end {
			d.seekWithin(p, end)
		}
		d.reverse = true
	}
	t := d.TransferTime(r.N)
	tx := p.Now()
	p.Hold(t)
	d.record(p, trace.TapeRead, tx, r.N)
	d.Stats.TransferTime += t
	d.pos = r.Start
	d.lastEnd = p.Now()
	d.started = true
	d.Stats.Requests++
	d.Stats.BlocksRead += r.N
	d.met.blocksRead.Add(float64(r.N))
	d.observe(p, t0)
	return deliver(data, corrupt)
}

// Append writes blocks at the end of data (the tape's scratch space),
// holding the drive for the seek to EOD plus the transfer, and returns
// the region written.
func (d *Drive) Append(p *sim.Proc, blks []block.Block) (Region, error) {
	if d.media == nil {
		return Region{}, fmt.Errorf("tape: drive %q has no cartridge", d.name)
	}
	t0 := p.Now()
	d.res.Acquire(p)
	defer d.res.Release(p)
	d.switchIn(p)
	eod := d.media.EOD()
	if _, err := d.consult(p, true, eod, int64(len(blks))); err != nil {
		return Region{}, err
	}
	reg, err := d.media.append(blks)
	if err != nil {
		return Region{}, err
	}
	d.transferSegments(p, eod, reg.N, trace.TapeWrite)
	d.Stats.Requests++
	d.Stats.BlocksWritten += reg.N
	d.met.blocksWritten.Add(float64(reg.N))
	d.observe(p, t0)
	return reg, nil
}

// WriteAt overwrites n blocks starting at addr (extending end of data
// when the write runs past it), charging seeks, exchanges and transfer
// time. Used by algorithms that reuse fixed tape workspaces, e.g. the
// sort-merge baseline's ping-pong merge passes.
func (d *Drive) WriteAt(p *sim.Proc, addr Addr, blks []block.Block) error {
	if d.media == nil {
		return fmt.Errorf("tape: drive %q has no cartridge", d.name)
	}
	t0 := p.Now()
	d.res.Acquire(p)
	defer d.res.Release(p)
	d.switchIn(p)
	if _, err := d.consult(p, true, addr, int64(len(blks))); err != nil {
		return err
	}
	if err := d.media.writeAt(addr, blks); err != nil {
		return err
	}
	d.transferSegments(p, addr, int64(len(blks)), trace.TapeWrite)
	d.Stats.Requests++
	d.Stats.BlocksWritten += int64(len(blks))
	d.met.blocksWritten.Add(float64(int64(len(blks))))
	d.observe(p, t0)
	return nil
}

// Rewind repositions the head to block 0 of the current cartridge,
// charging seek time.
func (d *Drive) Rewind(p *sim.Proc) {
	d.res.Acquire(p)
	defer d.res.Release(p)
	start := d.media.volumeSpan(d.curVol).Start
	d.seekWithin(p, start)
	d.reverse = false
}
