// Package filedev is the real-I/O backend: cartridges and disk
// scratch map to OS files, and transfers cost the wall-clock time the
// OS actually took, charged into the simulation clock so phase spans
// and stats report honest hardware numbers.
//
// Tape files are sequential-only: every read and write streams
// length-prefixed block records through an OS file, and head
// repositioning charges the drive profile's modeled seek latency
// (SeekFixed + distance * SeekPerBlock) — an OS file seeks for free,
// a tape transport does not, so the position model is the one part of
// the virtual cost model that survives into this backend. Disk
// scratch files are direct-offset: any block is one pread away and
// only the measured transfer time is charged.
//
// Transfers run through per-device ioengine workers: the calling proc
// plans the operation while it holds the simulation's control token
// (index bookkeeping, offset reservation), submits the pure OS
// syscalls to the device's worker goroutine, and yields the token
// until the worker posts completion. Independent devices therefore
// overlap in wall-clock time — the paper's max() cost composition —
// while the kernel's virtual schedule stays deterministic. Setting
// Backend.Synchronous restores the old inline path, where every
// transfer runs under the token and devices take strict turns.
//
// The mounted tape.Medium stays authoritative for content: appends
// and overwrites dual-write through the medium's setup interface, and
// Load respools the medium's current contents into the drive's
// spool file. That keeps media state consistent across unload/reload,
// shared-transport degrades, and the workload engine's mount
// scheduling, while every in-run transfer still moves real bytes
// through the OS.
package filedev

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/device/faultfile"
	"repro/internal/device/ioengine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ErrFreed is returned for operations on a freed scratch file. It is a
// plain error, not a panic: a join that races recovery against cleanup
// must degrade through the recovery machinery, not crash the process.
var ErrFreed = errors.New("filedev: file freed")

// SyncPolicy controls when written data is fsynced to the underlying
// device. Without syncing, OS writes land in the page cache and the
// "measured transfer" is mostly a memcpy.
type SyncPolicy int

const (
	// SyncInterval fsyncs after every SyncBytes of writes to a file
	// (the default): real storage is hit regularly without paying a
	// barrier per record.
	SyncInterval SyncPolicy = iota
	// SyncNone never fsyncs; data durability is the page cache's
	// problem. Fastest, least honest.
	SyncNone
	// SyncAlways fsyncs after every write operation before its
	// transfer is charged done.
	SyncAlways
)

// DefaultSyncBytes is the SyncInterval flush threshold.
const DefaultSyncBytes = 8 << 20

func (s SyncPolicy) String() string {
	switch s {
	case SyncNone:
		return "none"
	case SyncAlways:
		return "always"
	default:
		return "interval"
	}
}

// ParseSyncPolicy maps the CLI spelling of a sync policy to its value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	case "always":
		return SyncAlways, nil
	}
	return 0, fmt.Errorf("filedev: unknown sync policy %q (want none, interval or always)", s)
}

// Backend builds file-backed drives and stores rooted in one scratch
// directory. The zero Dir uses the process temp directory.
type Backend struct {
	// Dir is the root scratch directory; it is created on demand.
	Dir string
	// Synchronous disables the async I/O engine: transfers run inline
	// under the control token and serialize in wall-clock time. Used
	// by equivalence tests and as an escape hatch.
	Synchronous bool
	// Sync selects the fsync policy for written data (default
	// SyncInterval).
	Sync SyncPolicy
	// SyncBytes is the SyncInterval flush threshold
	// (DefaultSyncBytes when zero).
	SyncBytes int64
	// QueueDepth bounds each device worker's request queue
	// (ioengine.DefaultQueueDepth when zero).
	QueueDepth int
	// OpTimeout, when positive, bounds each device operation's
	// wall-clock execution on its worker: an op past the deadline
	// fails with a typed, retryable error, repeated misses degrade the
	// device's health, and TripAfter consecutive misses trip its
	// circuit breaker (the device then fails fast with
	// device.ErrDeviceFailed and the join's recovery machinery rebuilds
	// on surviving resources). Zero disables deadlines. Ignored by the
	// synchronous path, which has no worker to watchdog.
	OpTimeout time.Duration
	// TripAfter overrides the consecutive-timeout count that trips a
	// device's breaker (ioengine.DefaultTripAfter when zero).
	TripAfter int
	// RetryMax overrides the device-layer retry count for timed-out
	// and transient operations (negative disables retries; zero keeps
	// the engine default).
	RetryMax int
	// PaceScale, when positive, paces every transfer to occupy at
	// least the modeled device time divided by PaceScale in
	// wall-clock: the backend emulates the paper's device bandwidths
	// sped up PaceScale×, instead of running at page-cache speed where
	// every transfer is a near-instant memcpy. The sleep happens on
	// the device worker, off the control token, so paced transfers on
	// independent devices genuinely overlap in real time — this is
	// what makes the concurrent methods' wall-clock advantage
	// measurable on local files. Zero (the default) disables pacing.
	PaceScale float64
	// Flight, when set before the first device is built, receives the
	// engine's timeout / health-transition / retry events for live
	// observability. Nil records nothing.
	Flight *obs.FlightRecorder

	engine *ioengine.Engine
}

var _ device.Backend = &Backend{}
var _ device.WallStatser = &Backend{}
var _ device.HealthReporter = &Backend{}
var _ device.OpCanceller = &Backend{}

// New returns a backend rooted at dir.
func New(dir string) *Backend { return &Backend{Dir: dir} }

// Name implements device.Backend.
func (b *Backend) Name() string { return "file" }

// Engine returns the backend's async I/O engine, or nil when the
// backend is synchronous. The engine is shared by every device the
// backend builds, so its wall stats cover the whole device complex.
func (b *Backend) Engine() *ioengine.Engine {
	if b.Synchronous {
		return nil
	}
	if b.engine == nil {
		b.engine = ioengine.New(b.QueueDepth)
		pol := ioengine.Policy{OpTimeout: b.OpTimeout, TripAfter: b.TripAfter}
		if b.RetryMax != 0 {
			pol.Retry = ioengine.RetryPolicy{Max: b.RetryMax, Base: ioengine.DefaultRetry.Base}
			if b.RetryMax < 0 {
				pol.Retry = ioengine.RetryPolicy{Max: 0, Base: 1}
			}
		}
		b.engine.SetPolicy(pol)
		b.engine.SetFlight(b.Flight)
	}
	return b.engine
}

// DeviceHealths implements device.HealthReporter: the live health of
// every device worker the backend has built. Nil for a synchronous
// backend (no workers, nothing to watchdog).
func (b *Backend) DeviceHealths() []ioengine.DeviceHealth {
	if b.engine == nil {
		return nil
	}
	return b.engine.DeviceHealths()
}

// WallStats implements device.WallStatser: merged wall-clock busy time
// per device and the cross-device overlap fraction. Zero for a
// synchronous backend.
func (b *Backend) WallStats() ioengine.WallStats {
	if b.engine == nil {
		return ioengine.WallStats{}
	}
	return b.engine.WallStats()
}

// PublishWallMetrics implements device.WallStatser: per-device wall
// busy-seconds gauges plus the overlap fraction.
func (b *Backend) PublishWallMetrics(reg *obs.Registry) {
	if b.engine != nil {
		b.engine.PublishMetrics(reg)
	}
}

// CancelOps implements device.OpCanceller: every operation queued on
// the backend's device workers at the time of the call completes with
// device.ErrOpCancelled (wrapping cause) without touching the device or
// its health state; operations submitted afterwards run normally. A
// no-op for a synchronous backend, which has no queues to drain.
func (b *Backend) CancelOps(cause error) {
	if b.engine != nil {
		b.engine.CancelAll(cause)
	}
}

// worker builds a device worker, or nil for a synchronous backend.
func (b *Backend) worker(name string) *ioengine.Worker {
	if e := b.Engine(); e != nil {
		return e.Worker(name)
	}
	return nil
}

// syncBytes returns the effective SyncInterval threshold.
func (b *Backend) syncBytes() int64 {
	if b.SyncBytes > 0 {
		return b.SyncBytes
	}
	return DefaultSyncBytes
}

// mkdirTemp is a test hook for injecting constructor failures.
var mkdirTemp = os.MkdirTemp

// scratch makes a fresh unique directory for one device under the
// backend root.
func (b *Backend) scratch(kind, name string) (string, error) {
	root := b.Dir
	if root == "" {
		root = os.TempDir()
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return mkdirTemp(root, fmt.Sprintf("%s-%s-", kind, sanitize(name)))
}

// sanitize keeps device names path-safe.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// NewDrive implements device.Backend.
func (b *Backend) NewDrive(k *sim.Kernel, name string, cfg device.DriveConfig) (device.Drive, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dir, err := b.scratch("tape", name)
	if err != nil {
		return nil, err
	}
	dev := "tape:" + name
	return &Drive{name: name, dev: dev, k: k, cfg: cfg, dir: dir, b: b,
		w:   b.worker(dev),
		res: sim.NewResource(k, dev, 1)}, nil
}

// NewSharedDrivePair implements device.Backend: two logical drives
// serialized on one transport resource, for the post-drive-loss
// degraded configuration. Switching the transport between the drives
// forces a reposition on the next request, like moving one physical
// head between two mounted cartridges.
func (b *Backend) NewSharedDrivePair(k *sim.Kernel, nameA, nameB string, cfg device.DriveConfig) (device.Drive, device.Drive, error) {
	da, err := b.NewDrive(k, nameA, cfg)
	if err != nil {
		return nil, nil, err
	}
	db, err := b.NewDrive(k, nameB, cfg)
	if err != nil {
		da.Close() // release the first drive's worker and scratch dir
		return nil, nil, err
	}
	a, bb := da.(*Drive), db.(*Drive)
	t := &transport{res: a.res}
	a.shared, bb.shared = t, t
	bb.res = a.res
	return a, bb, nil
}

// NewStore implements device.Backend.
func (b *Backend) NewStore(k *sim.Kernel, cfg device.StoreConfig) (device.Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dir, err := b.scratch("disk", "store")
	if err != nil {
		return nil, err
	}
	return &Store{k: k, cfg: cfg, dir: dir, b: b, w: b.worker("disk")}, nil
}

// transport is the shared-head state of a degraded drive pair.
type transport struct {
	res  *sim.Resource
	last *Drive
}

// syncer applies the backend's SyncPolicy to one file. It is touched
// only by the goroutine executing that file's writes — the device
// worker, or the token holder in synchronous mode — so it needs no
// locking.
type syncer struct {
	policy SyncPolicy
	every  int64
	dirty  int64
}

// wrote records n freshly written bytes and fsyncs per policy.
func (s *syncer) wrote(f *faultfile.File, n int64) error {
	switch s.policy {
	case SyncNone:
		return nil
	case SyncAlways:
		return f.Sync()
	default:
		s.dirty += n
		if s.dirty >= s.every {
			s.dirty = 0
			return f.Sync()
		}
		return nil
	}
}

// flush forces out any deferred dirty bytes.
func (s *syncer) flush(f *faultfile.File) error {
	if s.policy == SyncInterval && s.dirty > 0 {
		s.dirty = 0
		return f.Sync()
	}
	return nil
}

// recFile is a checksummed length-prefixed block-record file with an
// in-memory index: record i of the logical device lives at index[i]
// with length lens[i] and stored CRC crcs[i]. Overwrites append a
// fresh record and repoint the index — the file itself is append-only,
// like a tape with block remapping.
//
// Every record frame is [len u32][crc32(payload) u32][payload], both
// little-endian, and every read verifies the payload against the CRC
// captured at plan time: torn writes, bit rot and truncated tails all
// surface as typed device.ErrCorrupt instead of silently joining wrong
// bytes. The frame CRC covers the whole encoded block, so it is the one
// integrity check of a read on this backend: nothing above re-verifies
// the block-level checksum.
//
// Operations are split so the async path has no shared mutable state:
// planAppend/planRead mutate the index and reserve offsets on the
// token-holding proc, and the returned ops run pure positioned
// syscalls on the device worker (positioned I/O is goroutine-safe).
// FIFO submission on one worker orders a write before any read of the
// same reserved offset. The underlying OS file is wrapped by
// faultfile.File, so fault decisions made at plan time can strike the
// syscalls themselves.
type recFile struct {
	// f is accessed atomically: close runs on the token-holding proc,
	// but a zombie op — one that outlived its deadline grace and was
	// abandoned by the engine — may still be executing on the worker
	// goroutine when the join tears the file down. The zombie loads the
	// pointer once; if it lost the race it sees nil (or a closed OS
	// file) and returns an error nobody is waiting for. os.File's own
	// fd refcounting makes Close concurrent with WriteAt/ReadAt safe.
	f     atomic.Pointer[faultfile.File]
	index []int64
	lens  []int32
	crcs  []uint32
	end   int64 // append offset
	sync  syncer
}

// recHeader is the per-record frame overhead: length + payload CRC.
const recHeader = 8

func (b *Backend) createRecFile(path string) (*recFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	r := &recFile{sync: syncer{policy: b.Sync, every: b.syncBytes()}}
	r.f.Store(faultfile.Wrap(f))
	return r, nil
}

// arm queues one OS-level fault decision against the file's next
// syscall. Called under the control token, before the planned ops are
// submitted.
func (r *recFile) arm(dec fault.OSDecision) {
	if f := r.f.Load(); f != nil {
		f.Arm(dec)
	}
}

// writeOp is one planned record write: frame header and payload,
// contiguous at a reserved offset.
type writeOp struct {
	off  int64
	data []byte
}

// readOp is one planned record read: the payload offset, a destination
// buffer sized from the index, and the expected payload CRC. flip
// models an injected delivery fault: the read bytes are damaged on the
// way in, before the frame check.
type readOp struct {
	off  int64
	buf  []byte
	crc  uint32
	flip bool
}

// planAppend registers blks at logical positions pos, pos+1, ... and
// reserves their file offsets, returning the write ops to execute;
// pos may repoint existing entries or extend the index by exactly one
// record at a time. The index is updated before any byte is written —
// the ops must be submitted to the file's worker (or run inline)
// before the token is released.
func (r *recFile) planAppend(pos int64, blks []block.Block) ([]writeOp, error) {
	ops := make([]writeOp, 0, len(blks))
	for _, blk := range blks {
		off := r.end
		crc := crc32.ChecksumIEEE(blk)
		data := make([]byte, recHeader+len(blk))
		binary.LittleEndian.PutUint32(data[:4], uint32(len(blk)))
		binary.LittleEndian.PutUint32(data[4:8], crc)
		copy(data[recHeader:], blk)
		r.end = off + int64(len(data))
		switch {
		case pos < int64(len(r.index)):
			r.index[pos], r.lens[pos], r.crcs[pos] = off, int32(len(blk)), crc
		case pos == int64(len(r.index)):
			r.index = append(r.index, off)
			r.lens = append(r.lens, int32(len(blk)))
			r.crcs = append(r.crcs, crc)
		default:
			return nil, fmt.Errorf("filedev: write at %d leaves a gap (len %d)", pos, len(r.index))
		}
		ops = append(ops, writeOp{off: off, data: data})
		pos++
	}
	return ops, nil
}

// execWrites performs planned writes and applies the sync policy.
// Safe to run off the control token.
func (r *recFile) execWrites(ops []writeOp) error {
	f := r.f.Load()
	if f == nil {
		return fmt.Errorf("filedev: write on released file: %w", os.ErrClosed)
	}
	var n int64
	for _, op := range ops {
		if _, err := f.WriteAt(op.data, op.off); err != nil {
			return err
		}
		n += int64(len(op.data))
	}
	return r.sync.wrote(f, n)
}

// planRead resolves n records starting at logical position off into
// positioned reads with preallocated buffers and expected checksums.
func (r *recFile) planRead(off, n int64) ([]readOp, error) {
	if off < 0 || n < 0 || off+n > int64(len(r.index)) {
		return nil, fmt.Errorf("filedev: read [%d,%d) out of range [0,%d)", off, off+n, len(r.index))
	}
	ops := make([]readOp, n)
	for i := int64(0); i < n; i++ {
		ops[i] = readOp{off: r.index[off+i] + recHeader,
			buf: make([]byte, r.lens[off+i]), crc: r.crcs[off+i]}
	}
	return ops, nil
}

// execReads performs planned reads and verifies each record against
// its stored checksum, converting short reads and payload mismatches
// into typed device.ErrCorrupt. Safe to run off the control token:
// verification is pure CPU over op-owned buffers.
func (r *recFile) execReads(ops []readOp) error {
	f := r.f.Load()
	if f == nil {
		return fmt.Errorf("filedev: read on released file: %w", os.ErrClosed)
	}
	for i, op := range ops {
		n, err := f.ReadAt(op.buf, op.off)
		switch {
		case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
			return fmt.Errorf("filedev: record %d truncated (%d of %d bytes): %w",
				i, n, len(op.buf), device.ErrCorrupt)
		case err != nil:
			return fmt.Errorf("filedev: record %d: %w", i, err)
		}
		if op.flip && len(op.buf) > 0 {
			op.buf[len(op.buf)-1] ^= 0xff
		}
		if got := crc32.ChecksumIEEE(op.buf); got != op.crc {
			return fmt.Errorf("filedev: record %d: stored crc %08x, read %08x: %w",
				i, op.crc, got, device.ErrCorrupt)
		}
	}
	return nil
}

// assemble converts executed read ops into blocks.
func assemble(ops []readOp) []block.Block {
	out := make([]block.Block, len(ops))
	for i, op := range ops {
		out[i] = block.Block(op.buf)
	}
	return out
}

// appendRecords plans and executes inline — for mount-time respooling
// and the synchronous path.
func (r *recFile) appendRecords(pos int64, blks []block.Block) error {
	ops, err := r.planAppend(pos, blks)
	if err != nil {
		return err
	}
	return r.execWrites(ops)
}

// poisonBad marks the records of blks (appended from position 0) whose
// block checksum already fails — silent corruption of the medium the
// spool was copied from — by inverting their expected frame CRC, so a
// read of one fails the frame check with device.ErrCorrupt like any
// other damaged stored record.
func (r *recFile) poisonBad(blks []block.Block) {
	for i, blk := range blks {
		if blk.Verify() != nil {
			r.crcs[i] = ^r.crcs[i]
		}
	}
}

// truncate drops all records from logical position n onward.
func (r *recFile) truncate(n int64) {
	if n < int64(len(r.index)) {
		r.index = r.index[:n]
		r.lens = r.lens[:n]
		r.crcs = r.crcs[:n]
	}
}

func (r *recFile) close() error {
	f := r.f.Swap(nil)
	if f == nil {
		return nil
	}
	return f.Close()
}

// hold charges the measured wall-clock duration of a completed OS
// operation into the simulation clock.
func hold(p *sim.Proc, t0 time.Time) sim.Duration {
	d := sim.Duration(time.Since(t0))
	if d > 0 {
		p.Hold(d)
	}
	return d
}

// pace returns the minimum wall-clock occupancy of an n-block
// transfer on a device sustaining rate bytes/second, or zero when
// pacing is off.
func (b *Backend) pace(rate float64, n int64) time.Duration {
	if b.PaceScale <= 0 || rate <= 0 {
		return 0
	}
	secs := float64(n) * block.VirtualSize / rate / b.PaceScale
	return time.Duration(secs * float64(time.Second))
}

// paced wraps op so it occupies at least min of wall-clock time. The
// sleep runs wherever the op runs — the device worker in async mode —
// so paced transfers on independent devices overlap like the hardware
// they emulate.
func paced(min time.Duration, op func() error) func() error {
	if min <= 0 {
		return op
	}
	return func() error {
		t0 := time.Now()
		err := op()
		if rest := min - time.Since(t0); rest > 0 {
			time.Sleep(rest)
		}
		return err
	}
}

// doIO runs one planned device operation: through the worker when the
// backend is async (the proc yields the control token while the
// worker performs the syscalls), inline under the token otherwise.
// Either way the measured wall duration is charged to virtual time
// and returned.
func doIO(p *sim.Proc, w *ioengine.Worker, op func() error) (sim.Duration, error) {
	if w != nil {
		return w.Do(p, op)
	}
	t0 := time.Now()
	err := op()
	return hold(p, t0), err
}

// remove deletes a device's scratch directory, ignoring errors — the
// OS temp cleaner is the backstop.
func remove(dir string) {
	if dir != "" && dir != string(filepath.Separator) {
		os.RemoveAll(dir)
	}
}
