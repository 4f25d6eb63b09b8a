// Package disk simulates the secondary-storage complex of the paper: n
// disk drives with an aggregate sustained rate X_D, explicit file
// placement (the paper's "special disk striping routines" of Section
// 4), and a per-request positioning overhead that is negligible for
// multi-block requests but dominates small ones — the Section 3.2 cost
// model, where requests of 30+ blocks make seek and rotational latency
// negligible.
package disk

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/block"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config sets the performance and capacity model of a disk array.
type Config struct {
	// NumDisks is the number of drives (paper: n >= 2).
	NumDisks int
	// AggregateRate is the combined sustained transfer rate of all
	// drives in bytes per second (the paper's X_D). Each drive
	// sustains AggregateRate/NumDisks.
	AggregateRate float64
	// RequestOverhead is the per-request positioning cost (seek +
	// rotational latency) charged on each per-disk request.
	RequestOverhead sim.Duration
	// BlocksPerDisk is the scratch capacity of each drive in paper
	// blocks. Total array capacity D = NumDisks * BlocksPerDisk.
	BlocksPerDisk int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumDisks < 1 {
		return fmt.Errorf("disk: NumDisks %d < 1", c.NumDisks)
	}
	if c.AggregateRate <= 0 {
		return fmt.Errorf("disk: AggregateRate %v <= 0", c.AggregateRate)
	}
	if c.RequestOverhead < 0 {
		return errors.New("disk: negative RequestOverhead")
	}
	if c.BlocksPerDisk < 1 {
		return fmt.Errorf("disk: BlocksPerDisk %d < 1", c.BlocksPerDisk)
	}
	return nil
}

// SCSI2Pair returns a profile resembling the paper's platform: two
// drives on Fast SCSI-2 with an aggregate rate of twice the calibrated
// tape rate (the X_D = 2 X_T assumption of Section 5.3) and an ~18 ms
// positioning overhead per request.
func SCSI2Pair(totalBlocks int64) Config {
	return Config{
		NumDisks:        2,
		AggregateRate:   2 * 1.676e6,
		RequestOverhead: 18 * time.Millisecond,
		BlocksPerDisk:   (totalBlocks + 1) / 2,
	}
}

// ErrDiskFull is returned when an allocation exceeds the capacity of
// the disks a file is placed on.
var ErrDiskFull = errors.New("disk: out of space")

// LostError reports an operation that needed a permanently failed
// drive. It unwraps to fault.ErrDeviceLost so recovery layers can
// match it with errors.Is.
type LostError struct {
	Disk int
}

// Error implements error.
func (e *LostError) Error() string { return fmt.Sprintf("disk: drive disk%d lost", e.Disk) }

// Unwrap classifies the loss.
func (e *LostError) Unwrap() error { return fault.ErrDeviceLost }

// Stats accumulates array-wide activity.
type Stats struct {
	BlocksRead    int64
	BlocksWritten int64
	Requests      int64 // per-disk requests issued
	TransferTime  sim.Duration
	OverheadTime  sim.Duration
	// Fault-injection activity (see internal/fault).
	Faults    int64
	StallTime sim.Duration
}

type dev struct {
	a    *Array
	id   int
	name string // "disk<id>": the resource, trace and fault device name
	res  *sim.Resource
	used int64
	dead bool // permanently failed; extents on it are lost
}

// Array is a simulated disk array with explicit placement control.
type Array struct {
	k     *sim.Kernel
	cfg   Config
	disks []*dev

	// Used is the total blocks currently allocated; HighWater its max.
	Used      int64
	HighWater int64
	Stats     Stats

	rec      *trace.Recorder
	met      arrayMetrics
	inj      fault.Injector
	nextFile int

	// Scratch for one request, reused by every file: it is filled and
	// consumed between two blocking points of the requesting proc
	// (RunTransfers copies xfers before it blocks), and only one proc
	// runs at a time.
	share []int64
	live  []int
	wants []int64
	xfers []sim.Transfer
}

// arrayMetrics are the array's series exported to an obs.Registry.
// The handles are nil-safe, so instrumentation calls unconditionally.
type arrayMetrics struct {
	blocksRead    *obs.Counter
	blocksWritten *obs.Counter
	latency       *obs.Histogram
	used          *obs.Gauge
}

// NewArray returns an array attached to the kernel.
func NewArray(k *sim.Kernel, cfg Config) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Array{k: k, cfg: cfg}
	for i := 0; i < cfg.NumDisks; i++ {
		name := fmt.Sprintf("disk%d", i)
		a.disks = append(a.disks, &dev{a: a, id: i, name: name, res: sim.NewResource(k, name, 1)})
	}
	return a, nil
}

// Config returns the array configuration.
func (a *Array) Config() Config { return a.cfg }

// SetRecorder attaches an event recorder (nil disables tracing).
func (a *Array) SetRecorder(r *trace.Recorder) { a.rec = r }

// SetInjector attaches a fault injector consulted on every file
// operation (nil disables injection).
func (a *Array) SetInjector(inj fault.Injector) { a.inj = inj }

// SetMetrics registers the array's counters, per-request latency
// histogram, and occupancy gauge in reg (nil detaches).
func (a *Array) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		a.met = arrayMetrics{}
		return
	}
	a.met = arrayMetrics{
		blocksRead:    reg.Counter("disk_blocks_read_total", "Blocks read from the disk array."),
		blocksWritten: reg.Counter("disk_blocks_written_total", "Blocks written to the disk array."),
		latency: reg.Histogram("disk_request_seconds",
			"Virtual latency of per-drive disk requests.", obs.DeviceLatencyBuckets),
		used: reg.Gauge("disk_used_blocks", "Blocks currently allocated on the array."),
	}
}

// DeadDisks returns the ids of permanently failed drives, in order.
func (a *Array) DeadDisks() []int {
	var out []int
	for _, d := range a.disks {
		if d.dead {
			out = append(out, d.id)
		}
	}
	return out
}

// LiveDisks returns the number of surviving drives.
func (a *Array) LiveDisks() int {
	n := 0
	for _, d := range a.disks {
		if !d.dead {
			n++
		}
	}
	return n
}

// TransferDone implements sim.TransferDone: it records one per-drive
// request that ended now on p. The event is stamped with x.Span,
// captured by the requester, because striped requests run on
// stackless tasks that carry no span stack of their own.
func (d *dev) TransferDone(p *sim.Proc, x *sim.Transfer, start sim.Time) {
	kind := trace.DiskRead
	if x.Write {
		kind = trace.DiskWrite
	}
	d.a.rec.AddFor(p, trace.Event{
		Device: d.name, Kind: kind,
		Start: start, End: p.Now(), Blocks: x.Blocks, Span: x.Span,
	})
	d.a.met.latency.Observe(sim.Duration(p.Now() - start).Seconds())
}

// TotalCapacity returns the array capacity in blocks across surviving
// drives — a disk failure shrinks the effective D the planner sees.
func (a *Array) TotalCapacity() int64 {
	return int64(a.LiveDisks()) * a.cfg.BlocksPerDisk
}

// Free returns unallocated blocks across the whole array.
func (a *Array) Free() int64 { return a.TotalCapacity() - a.Used }

// ResetHighWater restarts peak-space tracking from the current usage.
// A session running several joins on one array calls this between
// runs so each reports its own disk footprint rather than the
// session's maximum.
func (a *Array) ResetHighWater() { a.HighWater = a.Used }

// BusyTime returns the summed busy time of all drives.
func (a *Array) BusyTime() sim.Duration {
	var t sim.Duration
	for _, d := range a.disks {
		t += d.res.BusyTime
	}
	return t
}

// perDiskRate returns one drive's sustained rate.
func (a *Array) perDiskRate() float64 {
	return a.cfg.AggregateRate / float64(a.cfg.NumDisks)
}

// transferTime returns the service time of an n-block request on one
// drive, including positioning overhead.
func (a *Array) transferTime(n int64) sim.Duration {
	bytes := float64(n) * block.VirtualSize
	return a.cfg.RequestOverhead + sim.Duration(bytes/a.perDiskRate()*float64(time.Second))
}

// File is a logical disk file striped round-robin over a set of
// drives. Reads and writes are charged to the owning drives in
// parallel: a request of n blocks over k drives completes in the time
// of the largest per-drive share, so large striped transfers run at
// the aggregate rate while single-block writes pay one drive's
// positioning overhead.
type File struct {
	a       *Array
	name    string
	disks   []*dev // placement, round-robin targets
	blocks  []block.Block
	perDisk []int64 // blocks charged to each placement drive
	freed   bool
	ioName  string // names the file's striped-transfer tasks; set on first use
}

// Create makes an empty file placed on the given drives (nil = all
// drives). Space is charged as the file grows.
func (a *Array) Create(name string, placement []int) (*File, error) {
	f := &File{a: a, name: fmt.Sprintf("%s#%d", name, a.nextFile)}
	a.nextFile++
	if placement == nil {
		// Default placement snapshots the surviving drives, so files
		// created after a disk failure spread over the live array.
		for _, d := range a.disks {
			if !d.dead {
				f.disks = append(f.disks, d)
			}
		}
		if len(f.disks) == 0 {
			return nil, fmt.Errorf("disk: file %q: no surviving drives", name)
		}
		return f, nil
	}
	if len(placement) == 0 {
		return nil, fmt.Errorf("disk: file %q: empty placement", name)
	}
	for _, id := range placement {
		if id < 0 || id >= len(a.disks) {
			return nil, fmt.Errorf("disk: file %q: no drive %d", name, id)
		}
		if a.disks[id].dead {
			return nil, &LostError{Disk: id}
		}
		f.disks = append(f.disks, a.disks[id])
	}
	return f, nil
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Len returns the file length in blocks.
func (f *File) Len() int64 { return int64(len(f.blocks)) }

// shares splits an n-block transfer round-robin over the file's
// surviving drives, starting at the drive owning block offset off. The
// result is the array's scratch: use it before the proc next blocks.
func (f *File) shares(off, n int64) []int64 {
	a := f.a
	if cap(a.share) < len(f.disks) {
		a.share = make([]int64, len(f.disks))
		a.live = make([]int, 0, len(f.disks))
	}
	out := a.share[:len(f.disks)]
	clear(out)
	live := a.live[:0]
	for i, d := range f.disks {
		if !d.dead {
			live = append(live, i)
		}
	}
	k := int64(len(live))
	if k == 0 {
		return out
	}
	base := n / k
	rem := n % k
	for _, i := range live {
		out[i] = base
	}
	// The remainder lands on the drives following the starting one.
	for i := int64(0); i < rem; i++ {
		out[live[(off+i)%k]]++
	}
	return out
}

// lostOn returns a dead drive holding extents of this file, if any.
func (f *File) lostOn() (int, bool) {
	for i, d := range f.disks {
		if d.dead && f.perDisk != nil && f.perDisk[i] > 0 {
			return d.id, true
		}
	}
	return 0, false
}

// Lost reports whether the file lost extents to a failed drive.
// Striping spreads every block range over all placement drives, so a
// lost file is unreadable regardless of offset.
func (f *File) Lost() bool {
	_, lost := f.lostOn()
	return lost
}

// markDead records a permanent drive failure.
func (a *Array) markDead(p *sim.Proc, id int) {
	d := a.disks[id]
	if d.dead {
		return
	}
	d.dead = true
	a.rec.AddFor(p, trace.Event{
		Device: d.name, Kind: trace.Fault,
		Start: p.Now(), End: p.Now(), Note: "disk lost",
	})
}

// checkFaults consults the array's injector about one request before
// any time is charged: first the array-wide transfer path ("disk"),
// then each placement drive the request would touch (where a pending
// disk-failure rule can kill the drive). corrupt=true asks the caller
// to bit-flip the delivered read data.
func (f *File) checkFaults(p *sim.Proc, off, n int64, write bool) (corrupt bool, err error) {
	if id, lost := f.lostOn(); lost {
		return false, &LostError{Disk: id}
	}
	alive := 0
	for _, d := range f.disks {
		if !d.dead {
			alive++
		}
	}
	if alive == 0 {
		return false, &LostError{Disk: f.disks[0].id}
	}
	if f.a.inj == nil {
		return false, nil
	}
	dec := fault.Decide(f.a.inj, fault.Op{Device: "disk", Write: write, Addr: off, N: n, Now: p.Now()})
	if dec.Stall > 0 {
		f.a.Stats.Faults++
		f.a.Stats.StallTime += dec.Stall
		t0 := p.Now()
		p.Hold(dec.Stall)
		f.a.rec.AddFor(p, trace.Event{Device: "disk", Kind: trace.Fault, Start: t0, End: p.Now(), Note: "stall"})
	}
	if dec.Err != nil {
		f.a.Stats.Faults++
		return false, fmt.Errorf("disk: file %q: %w", f.name, dec.Err)
	}
	if dec.Corrupt {
		f.a.Stats.Faults++
		corrupt = true
	}
	sh := f.shares(off, n)
	for i, d := range f.disks {
		if sh[i] == 0 {
			continue
		}
		pd := fault.Decide(f.a.inj, fault.Op{
			Device: d.name, Write: write,
			Addr: off, N: sh[i], Now: p.Now(),
		})
		if pd.Err == nil {
			continue
		}
		f.a.Stats.Faults++
		if errors.Is(pd.Err, fault.ErrDeviceLost) {
			f.a.markDead(p, d.id)
			return false, &LostError{Disk: d.id}
		}
		return false, fmt.Errorf("disk: file %q: %w", f.name, pd.Err)
	}
	return corrupt, nil
}

// doIO charges an n-block transfer at offset off across the file's
// drives, overlapping the per-drive requests in virtual time. write
// selects which stat to bump.
func (f *File) doIO(p *sim.Proc, off, n int64, write bool) {
	if n <= 0 {
		return
	}
	a := f.a
	sh := f.shares(off, n)
	var single *dev
	singles := 0
	for i, d := range f.disks {
		if sh[i] > 0 {
			single = d
			singles++
		}
	}
	span := a.rec.SpanAt(p)
	xs := a.xfers[:0]
	for i, d := range f.disks {
		if sh[i] == 0 {
			continue
		}
		t := a.transferTime(sh[i])
		a.Stats.Requests++
		a.Stats.OverheadTime += a.cfg.RequestOverhead
		a.Stats.TransferTime += t - a.cfg.RequestOverhead
		xs = append(xs, sim.Transfer{Res: d.res, Hold: t, Done: d, Blocks: sh[i], Write: write, Span: span})
	}
	a.xfers = xs
	if singles == 1 {
		// Fast path: one drive involved, the requester transfers
		// itself. Copy the request out of the scratch before blocking.
		x := xs[0]
		single.res.Acquire(p)
		t0 := p.Now()
		p.Hold(x.Hold)
		single.TransferDone(p, &x, t0)
		single.res.Release(p)
	} else {
		if f.ioName == "" {
			f.ioName = f.name + "-io"
		}
		p.RunTransfers(f.ioName, xs)
	}
	if write {
		a.Stats.BlocksWritten += n
		a.met.blocksWritten.Add(float64(n))
	} else {
		a.Stats.BlocksRead += n
		a.met.blocksRead.Add(float64(n))
	}
}

// Append writes blocks at the end of the file, blocking for the
// striped transfer time. It fails with ErrDiskFull when the placement
// drives lack space.
func (f *File) Append(p *sim.Proc, blks []block.Block) error {
	if f.freed {
		panic(fmt.Sprintf("disk: append to freed file %q", f.name))
	}
	n := int64(len(blks))
	if n == 0 {
		return nil
	}
	off := int64(len(f.blocks))
	if _, err := f.checkFaults(p, off, n, true); err != nil {
		return err
	}
	if err := f.charge(n); err != nil {
		return err
	}
	f.blocks = append(f.blocks, blks...)
	f.doIO(p, off, n, true)
	return nil
}

// charge allocates n blocks of space on the file's drives, filling the
// emptiest drive first so the array stays balanced no matter how many
// small bucket files grow and shrink concurrently. It fails only when
// the placement drives are genuinely out of space in total.
func (f *File) charge(n int64) error {
	k := len(f.disks)
	if f.perDisk == nil {
		f.perDisk = make([]int64, k)
	}
	var free int64
	for _, d := range f.disks {
		if d.dead {
			continue
		}
		free += f.a.cfg.BlocksPerDisk - d.used
	}
	if free < n {
		return fmt.Errorf("%w: file %q needs %d blocks, placement has %d free",
			ErrDiskFull, f.name, n, free)
	}
	if cap(f.a.wants) < k {
		f.a.wants = make([]int64, k)
	}
	wants := f.a.wants[:k]
	clear(wants)
	remaining := n
	for remaining > 0 {
		// Pick the drive with the most free space after pending wants.
		best, bestFree := -1, int64(0)
		for i, d := range f.disks {
			if d.dead {
				continue
			}
			df := f.a.cfg.BlocksPerDisk - d.used - wants[i]
			if df > bestFree {
				best, bestFree = i, df
			}
		}
		if best < 0 {
			panic("disk: free accounting inconsistent")
		}
		// Take an even share or whatever levels this drive with the
		// next-fullest, whichever is smaller, to avoid O(n) looping.
		take := remaining / int64(k-countFull(f.disks, wants, f.a.cfg.BlocksPerDisk))
		if take < 1 {
			take = 1
		}
		if take > bestFree {
			take = bestFree
		}
		if take > remaining {
			take = remaining
		}
		wants[best] += take
		remaining -= take
	}
	for i, d := range f.disks {
		d.used += wants[i]
		f.perDisk[i] += wants[i]
	}
	f.a.Used += n
	if f.a.Used > f.a.HighWater {
		f.a.HighWater = f.a.Used
	}
	f.a.met.used.Set(float64(f.a.Used))
	return nil
}

// countFull reports how many placement drives have no free space left
// after pending wants.
func countFull(disks []*dev, wants []int64, capPerDisk int64) int {
	full := 0
	for i, d := range disks {
		if d.dead || capPerDisk-d.used-wants[i] <= 0 {
			full++
		}
	}
	if full >= len(disks) {
		full = len(disks) - 1 // avoid division by zero; caller checked total free
	}
	return full
}

// ReadAt reads n blocks at offset off, blocking for the striped
// transfer time. Every delivered block is checksum-verified; a
// mismatch fails the read with block.ErrBadChecksum.
func (f *File) ReadAt(p *sim.Proc, off, n int64) ([]block.Block, error) {
	if f.freed {
		panic(fmt.Sprintf("disk: read of freed file %q", f.name))
	}
	if off < 0 || n < 0 || off+n > f.Len() {
		return nil, fmt.Errorf("disk: read [%d,%d) beyond len %d of %q", off, off+n, f.Len(), f.name)
	}
	corrupt, err := f.checkFaults(p, off, n, false)
	if err != nil {
		return nil, err
	}
	out := make([]block.Block, n)
	copy(out, f.blocks[off:off+n])
	f.doIO(p, off, n, false)
	if corrupt && n > 0 {
		// Bit-flip one delivered block without touching the stored
		// copy (block slices alias storage), so a re-read recovers.
		i := n / 2
		bad := append(block.Block(nil), out[i]...)
		bad[len(bad)-1] ^= 0xff
		out[i] = bad
	}
	// The one integrity check of a simulated disk read.
	if err := block.VerifyAll(out); err != nil {
		return nil, err
	}
	return out, nil
}

// Free releases the file's space. Freeing costs no virtual time.
func (f *File) Free() {
	if f.freed {
		return
	}
	for i, d := range f.disks {
		if f.perDisk != nil {
			d.used -= f.perDisk[i]
		}
	}
	f.a.Used -= int64(len(f.blocks))
	f.a.met.used.Set(float64(f.a.Used))
	f.blocks = nil
	f.perDisk = nil
	f.freed = true
}
