package join

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/block"
	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrFaultExhausted marks a read whose retry budget ran out: the fault
// persisted through every reposition + re-read attempt. It always
// wraps the underlying cause, so errors.Is finds both.
var ErrFaultExhausted = errors.New("join: retries exhausted")

// Recovery is the fault-recovery policy of a join run. The zero value
// enables recovery with the defaults below.
type Recovery struct {
	// Disabled turns all recovery off: the first device error aborts
	// the join (the pre-fault-subsystem behavior).
	Disabled bool
	// MaxReadRetries bounds re-read attempts per device read before
	// the read fails with ErrFaultExhausted. Default 4.
	MaxReadRetries int
	// Backoff is the virtual-time cost of the first reposition +
	// re-read attempt; it doubles per attempt. Recovery is charged in
	// virtual time, so it shows up in response time. Default 2s.
	Backoff sim.Duration
	// MaxUnitRestarts bounds how many times one recoverable unit of
	// work (an iteration, bucket or chunk) restarts. Default 3.
	MaxUnitRestarts int
	// MaxRecovery bounds the total virtual time one read may spend in
	// backoff before giving up regardless of retries left. Default
	// 10m.
	MaxRecovery sim.Duration
}

// withDefaults fills zero fields.
func (r Recovery) withDefaults() Recovery {
	if r.MaxReadRetries == 0 {
		r.MaxReadRetries = 4
	}
	if r.Backoff == 0 {
		r.Backoff = 2 * time.Second
	}
	if r.MaxUnitRestarts == 0 {
		r.MaxUnitRestarts = 3
	}
	if r.MaxRecovery == 0 {
		r.MaxRecovery = 10 * time.Minute
	}
	return r
}

// retryableRead reports whether a failed read may succeed on re-read:
// injected transient faults, checksum mismatches in delivered data
// (block-level or device-frame — the stored copy may be fine), and
// per-op deadline misses that survived the device layer's own retries
// (the device may only be degraded; if its breaker has tripped, the
// re-read fails fast with a non-retryable loss error instead of
// looping). Hard media errors, lost devices and simulator bugs are not
// retryable.
func retryableRead(err error) bool {
	return fault.IsTransient(err) || errors.Is(err, block.ErrBadChecksum) ||
		errors.Is(err, device.ErrCorrupt) || errors.Is(err, device.ErrIOTimeout)
}

// unitRecoverable reports whether an error is worth restarting a work
// unit over: exhausted read retries (the unit can re-stage its inputs)
// and lost disks (the unit can rebuild on the surviving array). Once a
// disk has been lost, a full-disk error is recoverable too: in-flight
// allocations sized for the original array may overflow the shrunken
// one, and the restarted unit re-derives its sizing from effectiveD.
func (e *env) unitRecoverable(err error) bool {
	if errors.Is(err, ErrFaultExhausted) || errors.Is(err, fault.ErrDeviceLost) {
		return true
	}
	return errors.Is(err, device.ErrDiskFull) && len(e.disks.DeadDisks()) > 0
}

// readDev is the retrying device-read path every join read goes
// through: execute the read and, on a retryable failure, reposition +
// re-read with bounded exponential backoff charged in virtual time. A
// spent retry budget converts the last cause into ErrFaultExhausted.
// The device verified the delivered blocks (block.ErrBadChecksum on
// the simulator, device.ErrCorrupt from the file backend's frame
// check), so nothing here re-checks them. kind+name names the device
// in retry telemetry; it is joined only on the retry path.
func (e *env) readDev(p *sim.Proc, kind, name string, read func() ([]block.Block, error)) ([]block.Block, error) {
	rec := e.res.Recovery
	var deadline sim.Deadline
	backoff := rec.Backoff
	for attempt := 0; ; attempt++ {
		// Early-termination poll: a satisfied (or cancelled) run stops
		// issuing device work here, before the next transfer — this is
		// what keeps a StopAfter run's tape/disk counters strictly below
		// the full run's.
		if err := e.checkStop(); err != nil {
			return nil, err
		}
		blks, err := read()
		if err == nil {
			return blks, nil
		}
		if rec.Disabled || !retryableRead(err) {
			return nil, err
		}
		device := kind + name
		if attempt == 0 {
			deadline = sim.NewDeadline(p, rec.MaxRecovery)
		}
		if attempt >= rec.MaxReadRetries || deadline.Exceeded(p) {
			return nil, fmt.Errorf("%w after %d attempts on %s: %w",
				ErrFaultExhausted, attempt+1, device, err)
		}
		// Reposition + re-read: the backoff stands in for rewinding
		// past the bad spot and restreaming, charged in virtual time.
		hold := backoff
		if r := deadline.Remaining(p); hold > r {
			hold = r
		}
		e.stats.Retries++
		e.stats.RecoveryTime += hold
		sp := e.span(p, "retry-backoff", obs.A("device", device))
		t0 := p.Now()
		p.Hold(hold)
		e.res.Trace.AddFor(p, trace.Event{
			Device: device, Kind: trace.Retry,
			Start: t0, End: p.Now(), Note: "read retry backoff",
		})
		sp.Close(p)
		e.retryBackoff.Observe(hold.Seconds())
		e.res.Flight.RecordV(p.Now(), "retry", device,
			fmt.Sprintf("join-layer re-read %d after %v backoff", attempt+1, hold))
		backoff *= 2
	}
}

// tapeRead is readDev over a drive read.
func (e *env) tapeRead(p *sim.Proc, drive device.Drive, a device.Addr, n int64) ([]block.Block, error) {
	return e.readDev(p, "tape:", drive.Name(), func() ([]block.Block, error) {
		return drive.ReadAt(p, a, n)
	})
}

// diskRead is readDev over a file read.
func (e *env) diskRead(p *sim.Proc, f device.File, off, n int64) ([]block.Block, error) {
	return e.readDev(p, "disk:", f.Name(), func() ([]block.Block, error) {
		return f.ReadAt(p, off, n)
	})
}

// readSrc is readDev over a bucket source.
func (e *env) readSrc(p *sim.Proc, src bucketSource, off, n int64) ([]block.Block, error) {
	kind, name := src.device()
	return e.readDev(p, kind, name, func() ([]block.Block, error) {
		return src.read(p, off, n)
	})
}

// stagedSink buffers emissions until commit, so a retried unit of work
// never double-delivers output. reset discards the uncommitted pairs.
type stagedSink struct {
	inner     Sink
	pairs     [][2]block.Tuple
	committed int64
}

// Emit implements Sink.
func (s *stagedSink) Emit(_ *sim.Proc, r, t block.Tuple) {
	s.pairs = append(s.pairs, [2]block.Tuple{r, t})
}

// Count implements Sink.
func (s *stagedSink) Count() int64 { return s.committed + int64(len(s.pairs)) }

// commit replays the staged pairs into the inner sink.
func (s *stagedSink) commit(p *sim.Proc) {
	for _, pr := range s.pairs {
		s.inner.Emit(p, pr[0], pr[1])
	}
	s.committed += int64(len(s.pairs))
	s.pairs = nil
}

// reset discards uncommitted pairs.
func (s *stagedSink) reset() { s.pairs = nil }

// staged runs work with output staged: committed on success, discarded
// on failure. A unit stopped by the output cut-off commits what it
// emitted — those pairs are delivered, the stop just cut the unit
// short — while a real failure also rolls the emission count back so
// the restarted unit re-counts from the committed baseline. With
// recovery disabled it runs work directly.
func (e *env) staged(p *sim.Proc, work func() error) error {
	if e.res.Recovery.Disabled {
		return work()
	}
	outer := e.sink
	st := &stagedSink{inner: outer}
	e.sink = st
	before := e.emitted
	err := work()
	e.sink = outer
	if err == nil || errors.Is(err, ErrStopped) {
		sp := e.span(p, "stage-commit", obs.AInt("pairs", int64(len(st.pairs))))
		st.commit(p)
		sp.Close(p)
		return err
	}
	e.emitted = before
	return err
}

// runUnit retries one recoverable unit of work (an iteration, bucket
// or chunk). work is responsible for staging its own output (see
// staged) and for re-staging lost inputs on re-entry. Unrecoverable
// errors and exhausted restart budgets propagate.
func (e *env) runUnit(p *sim.Proc, name string, work func(*sim.Proc) error) error {
	for attempt := 0; ; attempt++ {
		err := work(p)
		if err == nil || e.res.Recovery.Disabled {
			return err
		}
		if !e.unitRecoverable(err) || attempt >= e.res.Recovery.MaxUnitRestarts {
			return err
		}
		e.stats.UnitRestarts++
		e.unitRestarts.Inc()
		e.res.Trace.AddFor(p, trace.Event{
			Device: "-", Kind: trace.Retry,
			Start: p.Now(), End: p.Now(),
			Note: fmt.Sprintf("restart %s after: %v", name, err),
		})
	}
}

// effectiveD returns the live disk budget: the configured D shrunk in
// proportion to any drives the array has lost.
func (e *env) effectiveD() int64 {
	if cap := e.disks.TotalCapacity(); cap < e.res.DiskBlocks {
		return cap
	}
	return e.res.DiskBlocks
}

// anyLost reports whether any file lost extents to a dead drive.
func anyLost(files []device.File) bool {
	for _, f := range files {
		if f.Lost() {
			return true
		}
	}
	return false
}

// degradeCandidates are the sequential fallbacks considered when a
// tape drive dies, in preference order for equal cost. All run on a
// single shared transport without drive-contention pathologies.
var degradeCandidates = []string{"DT-GH", "DT-NB", "TT-GH"}

// degradeRerun handles a permanent tape-drive loss: mount both
// cartridges behind one shared transport, discard the failed attempt's
// staged output and disk space, re-advise via the cost model to a
// feasible sequential method, and run it to completion in the same
// virtual timeline — so the degraded run's response time includes
// everything the failed attempt cost.
func (e *env) degradeRerun(p *sim.Proc, cause error) error {
	e.stats.DriveLost = true
	replan := e.span(p, "degrade-replan")
	e.res.Trace.AddFor(p, trace.Event{
		Device: "-", Kind: trace.Degrade,
		Start: p.Now(), End: p.Now(),
		Note: fmt.Sprintf("drive lost, re-planning: %v", cause),
	})

	// Discard the failed attempt: staged output, leaked memory
	// accounting, disk space, and tape scratch garbage. The emission
	// count and first-tuple stamp restart with the rerun — nothing the
	// failed attempt produced was delivered (Exec only degrades when
	// the whole run is staged or nothing streamed out yet).
	if e.outer != nil {
		e.outer.reset()
	}
	e.emitted = 0
	e.firstEmitSet = false
	e.stats.FirstTuple = 0
	e.mem.used = 0
	e.retireDisks()
	if m, ok := e.spec.R.Media.(device.Truncatable); ok && m.EOD() > e.eodR {
		m.Truncate(e.eodR)
	}
	if m, ok := e.spec.S.Media.(device.Truncatable); ok && m.EOD() > e.eodS {
		m.Truncate(e.eodS)
	}

	// Mount both cartridges behind one surviving transport. The new
	// logical drives carry fresh names so device-keyed fault rules
	// that killed the old drive do not re-fire.
	e.retiredDrives = append(e.retiredDrives, e.driveR, e.driveS)
	dr, ds, err := e.res.Backend.NewSharedDrivePair(e.k, "R2", "S2", e.res.Tape)
	if err != nil {
		replan.Close(p)
		return fmt.Errorf("join: no shared transport after drive loss: %w", err)
	}
	dr.Load(e.spec.R.Media)
	ds.Load(e.spec.S.Media)
	dr.SetRecorder(e.res.Trace)
	ds.SetRecorder(e.res.Trace)
	dr.SetMetrics(e.res.Metrics)
	ds.SetMetrics(e.res.Metrics)
	dr.SetInjector(e.inj)
	ds.SetInjector(e.inj)
	e.driveR, e.driveS = dr, ds
	e.res.DiskBlocks = e.effectiveD()
	e.dbuf, e.dbufCap = nil, 0

	// Re-advise: rank the sequential candidates by modelled cost on
	// the surviving resources, then take the cheapest that passes its
	// own feasibility check.
	params := cost.Params{
		RBlocks: e.spec.R.Region.N, SBlocks: e.spec.S.Region.N,
		MBlocks: e.res.MemoryBlocks, DBlocks: e.res.DiskBlocks,
		TapeRate: e.res.Tape.EffectiveRate(), DiskRate: e.res.DiskRate,
	}
	type scored struct {
		m       Method
		seconds float64
	}
	var ranked []scored
	for _, sym := range degradeCandidates {
		m, err := BySymbol(sym)
		if err != nil {
			continue
		}
		est := cost.EstimateMethod(sym, params)
		if est.Err != nil {
			continue
		}
		if err := m.Check(e.spec, e.res); err != nil {
			continue
		}
		ranked = append(ranked, scored{m, est.Seconds})
	}
	if len(ranked) == 0 {
		replan.Close(p)
		return fmt.Errorf("join: no feasible fallback after drive loss: %w", cause)
	}
	best := ranked[0]
	for _, c := range ranked[1:] {
		if c.seconds < best.seconds {
			best = c
		}
	}
	e.stats.DegradedTo = best.m.Symbol()
	e.res.Trace.AddFor(p, trace.Event{
		Device: "-", Kind: trace.Degrade,
		Start: p.Now(), End: p.Now(),
		Note: "degraded to " + best.m.Symbol() + " on shared transport",
	})
	// Close before the rerun so the fallback's phases stay top-level.
	replan.Close(p)
	return best.m.run(e, p)
}

// retireDisks replaces the array with a fresh one on the same kernel,
// pushing the old array (and its space accounting) onto the retired
// list for final stats. Pending disk-failure rules re-fire against the
// new array's drives, so a dead disk stays dead.
func (e *env) retireDisks() {
	e.retiredArrays = append(e.retiredArrays, e.disks)
	a, err := e.res.Backend.NewStore(e.k, e.disks.Config())
	if err != nil {
		panic(err) // config was valid for the original array
	}
	a.SetRecorder(e.res.Trace)
	a.SetMetrics(e.res.Metrics)
	a.SetInjector(e.inj)
	e.disks = a
}
