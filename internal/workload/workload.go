// Package workload schedules batches of join queries over the shared
// tertiary device complex — two tape drives and one disk array. The
// paper treats one ad hoc join at a time; under multi-query traffic
// the dominant cost becomes cartridge mounts and repeated tape passes,
// so the engine adds what a single join cannot have:
//
//   - a tape-mount scheduler that orders queries to minimize cartridge
//     switches (FIFO vs. mount-aware policies),
//   - shared S-scans: queries joining the same S relation piggyback on
//     one tape pass, fanning streamed chunks to per-query operators,
//   - admission control partitioning M and D across the riders of a
//     shared pass with the internal/cost model, so every admitted
//     query still satisfies its method's Table 2 row,
//   - a disk staging cache retaining copied-R partitions across
//     queries with LRU eviction, so repeated joins skip the tape.
//
// The whole batch runs inside one join.Session: a single simulation
// kernel whose drive head positions and disk files persist across
// queries, which is what makes mounts, seeks and cache hits real
// effects rather than bookkeeping.
package workload

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/block"
	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/sim"
)

// Query is one join request in a batch.
type Query struct {
	// ID labels the query in results and the schedule log; defaults to
	// "q<index>".
	ID string
	// Method is the requested join method symbol ("CDT-NB/MB", ...).
	// Empty lets the cost advisor pick the cheapest feasible method.
	// An infeasible request is substituted by the advisor's choice;
	// the cross-method equivalence oracle (internal/join) is what
	// licenses swapping one method for another.
	Method string
	// R is the smaller relation, S the larger.
	R, S *relation.Relation
	// FilterR and FilterS are pushed-down selections. A query with a
	// FilterR never uses the staging cache (its R copy is
	// predicate-specific).
	FilterR, FilterS func(block.Tuple) bool
	// Sink receives the query's output pairs; nil counts matches only.
	Sink join.Sink
	// StopAfter, when positive, stops the join after this many output
	// pairs. A StopAfter query always runs solo — its partial prefix
	// cannot be subsumed by a shared pass, whose riders see the whole
	// scan — and the scheduler prefers the streaming SYM-H method for
	// it. It is never requeued after a device failure: pairs may already
	// have been streamed to its sink, and a rerun would double-deliver.
	StopAfter int64

	// arrived is the query's virtual arrival on the session clock, the
	// base of its queue wait: zero in a batch, where every query
	// arrives at t=0; stamped by the online engine.
	arrived sim.Duration
}

// Policy selects the batch scheduling policy.
type Policy int

const (
	// FIFO runs queries in submission order, mounting whatever each
	// one needs — the baseline that thrashes cartridges.
	FIFO Policy = iota
	// MountAware reorders the batch to group queries by S cartridge
	// (then by R cartridge within a group), minimizing mounts; every
	// query still runs as its own join.
	MountAware
	// SharedScan is MountAware plus shared S-passes: same-S queries
	// admitted by the cost model join on a single tape pass of S.
	SharedScan
)

// String returns the policy's CLI name.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case MountAware:
		return "mount-aware"
	case SharedScan:
		return "shared-scan"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy converts a CLI name to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fifo":
		return FIFO, nil
	case "mount-aware":
		return MountAware, nil
	case "shared-scan":
		return SharedScan, nil
	}
	return 0, fmt.Errorf("workload: unknown policy %q (want fifo, mount-aware or shared-scan)", s)
}

// Config describes the shared system and the scheduling policy.
type Config struct {
	// Resources is the device complex every query shares (one M, one
	// D, two drives, n disks).
	Resources join.Resources
	// Policy selects the scheduler.
	Policy Policy
	// CacheBlocks carves this much of D out as the staging cache for
	// copied-R partitions (LRU). Methods plan with D - CacheBlocks.
	// Zero disables the cache.
	CacheBlocks int64
	// MountTime is the virtual cost of switching a cartridge in a
	// drive (robot exchange + load + thread); default 30 s.
	MountTime sim.Duration
	// MaxShared caps riders per shared S-pass (default 4).
	MaxShared int
	// ScheduleCap bounds the schedule log to its most recent lines
	// (0 = unbounded, the batch default). The resident online engine
	// sets a cap so a long-lived service does not grow the log without
	// bound; ScheduleDropped counts what fell off.
	ScheduleCap int
}

func (c Config) withDefaults() Config {
	if c.MountTime == 0 {
		c.MountTime = 30 * time.Second
	}
	if c.MaxShared == 0 {
		c.MaxShared = 4
	}
	return c
}

// QueryResult reports one query of a batch.
type QueryResult struct {
	// ID echoes the query.
	ID string
	// Requested is the method asked for ("" = advisor's choice);
	// Method is what actually ran. A shared-pass rider reports
	// "SHARED" — its join work was subsumed by the group's scan.
	Requested, Method string
	// Substituted marks a requested method replaced by the scheduler
	// (infeasible on the query's resource partition, or subsumed by a
	// shared pass).
	Substituted bool
	// Shared marks a rider of a shared S-scan.
	Shared bool
	// CacheHit marks a query whose R copy came from the staging cache
	// instead of tape.
	CacheHit bool
	// Failed marks a query no feasible method could serve — or one that
	// failed again after a device-failure requeue; Reason explains.
	// Failed queries produce no output but do not abort the batch.
	// Reason is always typed: "<kind>: <detail>" with kind one of the
	// Reason* constants, so callers can switch on the class without
	// parsing free text.
	Failed bool
	Reason string
	// Requeued marks a query re-admitted after a device-class failure:
	// its first service attempt (solo or as a shared-pass rider) died
	// with a lost drive, a tripped breaker or unrecoverable corruption,
	// and the scheduler ran it again on the surviving device complex.
	Requeued bool
	// Start and End bound the query's service in virtual time; Wait is
	// the queue wait since the query's virtual arrival (a batch arrives
	// at t=0, so there Wait = Start).
	Start, End, Wait sim.Duration
	// Matches is the output cardinality.
	Matches int64
	// Stopped marks a StopAfter query the join terminated early; Matches
	// then counts only the delivered prefix. FirstTuple is the virtual
	// time from service start to the first delivered pair (zero when the
	// query produced no output or its method does not stream).
	Stopped    bool
	FirstTuple sim.Duration
	// OutputHash is the order-independent digest of the query's emitted
	// pairs, when its sink maintains one (the default CountSink does;
	// see join.Hasher). Equal hashes mean the same multiset of pairs,
	// byte for byte — the cross-schedule equivalence oracle between
	// online, batch and solo service of the same query.
	OutputHash uint64
}

// Reason kinds. Every Failed QueryResult carries a Reason of the form
// "<kind>: <detail>" using one of these prefixes; the online engine and
// service layer add admission-time kinds of their own.
const (
	// ReasonInfeasible marks a query no method could serve within its
	// resource partition (the M/k and D budgets of admission control).
	ReasonInfeasible = "infeasible"
	// ReasonDeviceFailed marks a query that failed again on the
	// surviving device complex after a device-class requeue.
	ReasonDeviceFailed = "device-failed"
	// ReasonDeadline marks a query whose deadline expired before
	// service started (online scheduling only).
	ReasonDeadline = "deadline-exceeded"
	// ReasonShutdown marks a query the engine could not serve because
	// the service stopped underneath it (kernel failure or close).
	ReasonShutdown = "shutdown"
)

// typedReason renders a classified failure reason.
func typedReason(kind string, err error) string {
	return kind + ": " + err.Error()
}

// BatchResult reports a whole batch run.
type BatchResult struct {
	// Policy echoes the scheduler used.
	Policy Policy
	// Makespan is the virtual time from batch arrival to the last
	// query's completion.
	Makespan sim.Duration
	// Mounts counts cartridge switches charged (RMounts + SMounts).
	Mounts, RMounts, SMounts int
	// SharedPasses counts shared S-scans executed.
	SharedPasses int
	// Requeues counts device-failure re-admissions of single queries;
	// Demotions counts riders of failed shared passes that fell back to
	// solo service.
	Requeues, Demotions int
	// Staging-cache activity.
	CacheHits, CacheMisses, CacheEvictions int64
	// Tape traffic across both drives for the whole batch.
	TapeBlocksRead, TapeBlocksWritten int64
	// DiskHighWater is the batch's peak disk footprint, cache included.
	DiskHighWater int64
	// Queries holds per-query results in submission order.
	Queries []QueryResult
	// Schedule is the deterministic, human-readable schedule log: one
	// line per scheduling action with virtual timestamps. When
	// Config.ScheduleCap is set only the most recent lines are kept and
	// ScheduleDropped counts the ones that fell off.
	Schedule        []string
	ScheduleDropped int64
}

// engine is the per-batch runtime state.
type engine struct {
	cfg     Config
	session *join.Session
	cache   *stagingCache
	queries []Query
	results []QueryResult
	out     *BatchResult
	// array is the disk store the cache's files live on; when a query
	// swaps in a rebuilt array, the cache is flushed (its files are
	// stranded on the retired store).
	array device.Store

	queueWait *obs.Histogram
	mountsC   *obs.Counter
	hitsC     *obs.Counter
	missesC   *obs.Counter
	sharedC   *obs.Counter
}

// Run executes the batch under the configured policy and returns
// per-query and batch-level results. The run is deterministic: the
// same config and queries produce byte-identical schedules, traces
// and results.
func Run(cfg Config, queries []Query) (*BatchResult, error) {
	cfg = cfg.withDefaults()
	if len(queries) == 0 {
		return nil, errors.New("workload: empty batch")
	}
	session, err := join.NewSession(cfg.Resources)
	if err != nil {
		return nil, err
	}
	defer session.Close()
	res := session.Resources()
	if cfg.CacheBlocks < 0 || cfg.CacheBlocks >= res.DiskBlocks {
		return nil, fmt.Errorf("workload: CacheBlocks %d outside [0, D=%d)", cfg.CacheBlocks, res.DiskBlocks)
	}
	for i := range queries {
		if queries[i].ID == "" {
			queries[i].ID = fmt.Sprintf("q%d", i)
		}
		spec := join.Spec{R: queries[i].R, S: queries[i].S}
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("workload: query %s: %w", queries[i].ID, err)
		}
	}

	reg := res.Metrics
	en := &engine{
		cfg: cfg, session: session, queries: queries,
		array:   session.Disks(),
		cache:   newStagingCache(cfg.CacheBlocks),
		results: make([]QueryResult, len(queries)),
		out:     &BatchResult{Policy: cfg.Policy},
		queueWait: reg.Histogram("workload_queue_wait_seconds",
			"Virtual time queries waited before service started.", obs.BackoffBuckets),
		mountsC: reg.Counter("workload_mounts_total", "Cartridge switches charged by the scheduler."),
		hitsC:   reg.Counter("workload_cache_hits_total", "Staging-cache hits (R copies served from disk)."),
		missesC: reg.Counter("workload_cache_misses_total", "Staging-cache misses (R copies read from tape)."),
		sharedC: reg.Counter("workload_shared_passes_total", "Shared S-scan passes executed."),
	}
	steps := plan(cfg, res, queries)

	var runErr error
	session.Kernel().Spawn("workload", func(p *sim.Proc) {
		for _, st := range steps {
			if st.shared {
				runErr = en.runShared(p, st.indices)
			} else {
				runErr = en.runSingle(p, st.indices[0])
			}
			if runErr != nil {
				return
			}
		}
	})
	if err := session.Kernel().Run(); err != nil {
		return nil, fmt.Errorf("workload: simulation: %w", err)
	}
	session.Finish()
	if runErr != nil {
		return nil, runErr
	}

	en.out.Makespan = sim.Duration(session.Kernel().Now())
	en.out.Queries = en.results
	en.out.CacheHits = en.cache.Hits
	en.out.CacheMisses = en.cache.Misses
	en.out.CacheEvictions = en.cache.Evictions
	rStats, sStats := session.DriveR().DriveStats(), session.DriveS().DriveStats()
	en.out.TapeBlocksRead = rStats.BlocksRead + sStats.BlocksRead
	en.out.TapeBlocksWritten = rStats.BlocksWritten + sStats.BlocksWritten
	en.out.DiskHighWater = session.Disks().HighWater()
	return en.out, nil
}

// logf appends one line to the deterministic schedule log, stamped
// with the current virtual time.
func (en *engine) logf(p *sim.Proc, format string, args ...any) {
	line := fmt.Sprintf("t=%08.1fs %s", sim.Duration(p.Now()).Seconds(), fmt.Sprintf(format, args...))
	if cap := en.cfg.ScheduleCap; cap > 0 && len(en.out.Schedule) >= cap {
		n := copy(en.out.Schedule, en.out.Schedule[len(en.out.Schedule)-cap+1:])
		en.out.Schedule = en.out.Schedule[:n]
		en.out.ScheduleDropped++
	}
	en.out.Schedule = append(en.out.Schedule, line)
}

// mount switches the given drive to medium m, charging MountTime when
// the cartridge actually changes. The first load of an empty drive is
// charged too: a batch system owns its robot time, unlike the paper's
// single pre-mounted join.
func (en *engine) mount(p *sim.Proc, drive device.Drive, m device.Medium, side string) {
	if drive.Media() == m {
		return
	}
	sp := en.session.Resources().Spans.Begin(p, "mount",
		obs.A("side", side), obs.A("media", m.Name()))
	p.Hold(en.cfg.MountTime)
	drive.Load(m)
	sp.Close(p)
	en.out.Mounts++
	if side == "R" {
		en.out.RMounts++
	} else {
		en.out.SMounts++
	}
	en.mountsC.Inc()
	en.logf(p, "mount %s drive <- %s", side, m.Name())
}

// methodDiskBudget is the disk partition a query's method plans with:
// the array minus the staging-cache carve-out, plus the blocks of its
// own staged R when that copy lives inside the cache (the method's
// Table 2 check counts R's copy against its budget).
func (en *engine) methodDiskBudget(staged int64) int64 {
	return en.session.Resources().DiskBlocks - en.cfg.CacheBlocks + staged
}

// usesCopiedR reports whether a method's Step I is a plain copy of R
// to disk — the Nested Block family. Only these can consume a staged
// (cached) R partition; the Grace Hash methods lay R out in an
// M-dependent bucket structure instead.
func usesCopiedR(symbol string) bool {
	switch symbol {
	case "DT-NB", "CDT-NB/MB", "CDT-NB/DB":
		return true
	}
	return false
}

// chooseMethod picks the method a single query runs: the requested one
// when feasible on the query's resource partition, otherwise the cost
// advisor's cheapest feasible alternative.
func (en *engine) chooseMethod(q Query, spec join.Spec, dBudget int64) (join.Method, bool, error) {
	res := en.session.Resources()
	res.DiskBlocks = dBudget
	if q.Method != "" {
		m, err := join.BySymbol(q.Method)
		if err != nil {
			return nil, false, err
		}
		if err := m.Check(spec, res); err == nil {
			return m, false, nil
		}
	}
	if q.StopAfter > 0 {
		// The cost model ranks whole-run response and would never pick a
		// streaming method; for a prefix query, time-to-first-tuple is
		// what matters, so prefer SYM-H whenever it is feasible.
		if m, err := join.BySymbol("SYM-H"); err == nil && m.Check(spec, res) == nil {
			return m, q.Method != "" && q.Method != "SYM-H", nil
		}
	}
	params := cost.Params{
		RBlocks: spec.R.Region.N, SBlocks: spec.S.Region.N,
		MBlocks: res.MemoryBlocks, DBlocks: dBudget,
		TapeRate: res.Tape.EffectiveRate(), DiskRate: res.DiskRate,
	}
	adv := cost.Advise(params, cost.Scratch{
		RTape: spec.R.Media.Free(), STape: spec.S.Media.Free(),
	})
	for _, est := range adv.Ranked {
		if est.Err != nil {
			continue
		}
		m, err := join.BySymbol(est.Method)
		if err != nil {
			continue
		}
		if err := m.Check(spec, res); err != nil {
			continue
		}
		return m, q.Method != "" && est.Method != q.Method, nil
	}
	return nil, false, fmt.Errorf("no feasible method for %s (M=%d, D=%d)",
		q.ID, res.MemoryBlocks, dBudget)
}

// staged is a resolved disk-resident R handle: either a pinned cache
// entry or a pass-owned copy to free after use.
type staged struct {
	file   device.File
	pinned *cacheEntry
	owned  device.File
	hit    bool
}

// stagedR resolves a query's disk-resident R copy: a cache hit, a
// fresh cache fill, or — when forceStage is set and the cache cannot
// serve — a pass-owned copy staged outside the cache. A nil file with
// nil error means the query should read R from tape itself.
func (en *engine) stagedR(p *sim.Proc, q Query, forceStage bool) (*staged, error) {
	out := &staged{}
	cacheable := q.FilterR == nil && en.cfg.CacheBlocks > 0
	if cacheable {
		if ce := en.cache.lookup(q.R); ce != nil {
			en.cache.pin(ce)
			out.pinned = ce
			out.file = ce.file
			out.hit = true
			en.hitsC.Inc()
			en.logf(p, "cache hit: R=%s (%d blocks)", q.R.Name, ce.blocks)
			return out, nil
		}
		en.missesC.Inc()
		if q.R.Region.N <= en.cfg.CacheBlocks {
			evicted, ok := en.cache.makeRoom(q.R.Region.N)
			for _, name := range evicted {
				en.logf(p, "cache evict: R=%s", name)
			}
			if ok {
				en.mount(p, en.session.DriveR(), q.R.Media, "R")
				f, d, err := en.session.StageR(p, q.R, nil)
				if err != nil {
					return nil, err
				}
				ce := en.cache.insert(q.R, f)
				en.cache.pin(ce)
				out.pinned = ce
				out.file = f
				en.logf(p, "cache fill: R=%s (%d blocks, %.1fs)", q.R.Name, f.Len(), d.Seconds())
				return out, nil
			}
		}
	}
	if forceStage {
		// Shared riders need a disk-resident R even when it cannot be
		// cached: stage a pass-owned (possibly filtered) copy.
		en.mount(p, en.session.DriveR(), q.R.Media, "R")
		f, d, err := en.session.StageR(p, q.R, q.FilterR)
		if err != nil {
			return nil, err
		}
		out.file = f
		out.owned = f
		en.logf(p, "stage R=%s for shared pass (%d blocks, %.1fs)", q.R.Name, f.Len(), d.Seconds())
		return out, nil
	}
	return out, nil
}

// release unpins or frees whatever stagedR resolved.
func (en *engine) release(s *staged) {
	if s == nil {
		return
	}
	if s.pinned != nil {
		en.cache.unpin(s.pinned)
	}
	if s.owned != nil {
		s.owned.Free()
	}
}

// deviceFailure classifies errors that indict the device complex
// rather than the query: lost drives and stores, tripped wall-clock
// breakers, unrecoverable stored corruption, and exhausted fault-retry
// budgets. A query failing this way is re-admitted once on whatever
// survives; anything else (infeasible plans, simulator bugs) aborts
// the batch as before.
func deviceFailure(err error) bool {
	return errors.Is(err, fault.ErrDriveLost) || errors.Is(err, fault.ErrDeviceLost) ||
		errors.Is(err, device.ErrDeviceFailed) || errors.Is(err, device.ErrCorrupt) ||
		errors.Is(err, join.ErrFaultExhausted)
}

// syncDevices reconciles engine state after a query that may have
// swapped session devices: a drive-loss degrade or a disk rebuild
// installs replacements, stranding the staging cache's files on the
// retired array, so the cache is flushed when the array identity
// changes.
func (en *engine) syncDevices(p *sim.Proc) {
	if en.session.Disks() == en.array {
		return
	}
	en.array = en.session.Disks()
	for _, name := range en.cache.flush() {
		en.logf(p, "cache flush: R=%s (disk array replaced)", name)
	}
}

// runSingle serves one query as its own join, re-admitting it once on
// the surviving device complex when a device-class failure escapes the
// join layer's own recovery. A second device failure marks the query
// Failed — with a typed reason — without aborting the batch.
func (en *engine) runSingle(p *sim.Proc, qi int) error {
	q := en.queries[qi]
	start := sim.Duration(p.Now())
	sp := en.session.Resources().Spans.Begin(p, "query", obs.A("id", q.ID))
	defer sp.Close(p)
	en.queueWait.Observe((start - q.arrived).Seconds())

	for attempt := 0; ; attempt++ {
		err := en.tryQuery(p, qi, start, attempt > 0)
		en.syncDevices(p)
		if err == nil {
			return nil
		}
		if !deviceFailure(err) {
			return fmt.Errorf("workload: query %s: %w", q.ID, err)
		}
		if attempt == 0 && q.StopAfter == 0 {
			en.out.Requeues++
			en.logf(p, "requeue %s on surviving devices after: %v", q.ID, err)
			continue
		}
		// StopAfter queries are never requeued: part of their prefix may
		// already have been streamed to the sink, and a rerun would
		// double-deliver it.
		en.results[qi] = QueryResult{
			ID: q.ID, Requested: q.Method, Requeued: attempt > 0,
			Failed: true, Reason: typedReason(ReasonDeviceFailed, err),
			Start: start, End: sim.Duration(p.Now()), Wait: start - q.arrived,
		}
		en.logf(p, "query %s: failed (%v)", q.ID, err)
		return nil
	}
}

// tryQuery is one service attempt of a single query: mount, choose a
// method on the current (possibly degraded) resources, resolve staged
// R, execute. It records the result itself on success (and on an
// infeasible plan, which fails the query without retrying); device and
// simulator errors propagate to runSingle for classification.
func (en *engine) tryQuery(p *sim.Proc, qi int, start sim.Duration, requeued bool) error {
	q := en.queries[qi]
	spec := join.Spec{R: q.R, S: q.S, FilterR: q.FilterR, FilterS: q.FilterS}
	en.mount(p, en.session.DriveS(), q.S.Media, "S")

	m, substituted, err := en.chooseMethod(q, spec, en.methodDiskBudget(0))
	if err != nil {
		en.results[qi] = QueryResult{
			ID: q.ID, Requested: q.Method, Requeued: requeued,
			Failed: true, Reason: typedReason(ReasonInfeasible, err),
			Start: start, End: start, Wait: start - q.arrived,
		}
		en.logf(p, "query %s: failed (%v)", q.ID, err)
		return nil
	}

	var st *staged
	opts := join.ExecOptions{DiskBlocks: en.methodDiskBudget(0), StopAfter: q.StopAfter}
	if usesCopiedR(m.Symbol()) {
		st, err = en.stagedR(p, q, false)
		if err != nil {
			return err
		}
		if st.file != nil {
			opts.StagedR = st.file
			opts.DiskBlocks = en.methodDiskBudget(st.file.Len())
		}
	}
	if opts.StagedR == nil {
		en.mount(p, en.session.DriveR(), q.R.Media, "R")
	}

	sink := q.Sink
	if sink == nil {
		sink = &join.CountSink{}
	}
	cached := ""
	if st != nil && st.hit {
		cached = ", cached R"
	}
	en.logf(p, "run %s: %s (R=%s, S=%s%s)", q.ID, m.Symbol(), q.R.Name, q.S.Name, cached)
	result, err := en.session.Exec(p, m, spec, sink, opts)
	en.release(st)
	if err != nil {
		return err
	}
	en.results[qi] = QueryResult{
		ID: q.ID, Requested: q.Method, Method: m.Symbol(),
		Substituted: substituted, CacheHit: st != nil && st.hit,
		Requeued: requeued,
		Start:    start, End: sim.Duration(p.Now()), Wait: start - q.arrived,
		Matches:    result.Stats.OutputTuples,
		Stopped:    result.Stats.Stopped,
		FirstTuple: result.Stats.FirstTuple,
		OutputHash: sinkHash(sink),
	}
	return nil
}

// sinkHash surfaces a sink's order-independent output digest, when it
// keeps one.
func sinkHash(s join.Sink) uint64 {
	if h, ok := s.(join.Hasher); ok {
		return h.Hash()
	}
	return 0
}

// holdSink buffers a shared rider's output until the pass commits, so
// a failed pass can demote its riders to solo service without
// double-delivering pairs already emitted mid-scan.
type holdSink struct {
	inner join.Sink
	pairs [][2]block.Tuple
}

// Emit implements join.Sink.
func (s *holdSink) Emit(_ *sim.Proc, r, t block.Tuple) {
	s.pairs = append(s.pairs, [2]block.Tuple{r, t})
}

// Count implements join.Sink.
func (s *holdSink) Count() int64 { return int64(len(s.pairs)) }

// commit replays the held pairs into the rider's real sink.
func (s *holdSink) commit(p *sim.Proc) {
	for _, pr := range s.pairs {
		s.inner.Emit(p, pr[0], pr[1])
	}
	s.pairs = nil
}

// demote falls back from a failed shared pass to solo service: each
// rider re-enters as a single query — with its own requeue budget — on
// the surviving devices. The pass's held output was discarded with it,
// so no pair is double-delivered.
func (en *engine) demote(p *sim.Proc, indices []int, cause error) error {
	en.logf(p, "shared pass failed (%v); demoting %d riders to singles", cause, len(indices))
	en.out.Demotions += len(indices)
	for _, qi := range indices {
		if err := en.runSingle(p, qi); err != nil {
			return err
		}
		en.results[qi].Requeued = true
	}
	return nil
}

// runShared serves a group of same-S queries on one shared tape pass.
// A device-class failure demotes the riders to solo service instead of
// aborting the batch.
func (en *engine) runShared(p *sim.Proc, indices []int) error {
	start := sim.Duration(p.Now())
	bigS := en.queries[indices[0]].S
	sp := en.session.Resources().Spans.Begin(p, "shared-pass",
		obs.A("s", bigS.Name), obs.AInt("riders", int64(len(indices))))
	defer sp.Close(p)

	res := en.session.Resources()
	mShare := res.MemoryBlocks / int64(len(indices))
	riders := make([]join.SharedQuery, 0, len(indices))
	handles := make([]*staged, 0, len(indices))
	held := make([]*holdSink, 0, len(indices))
	for _, qi := range indices {
		q := en.queries[qi]
		en.queueWait.Observe((start - q.arrived).Seconds())
		st, err := en.stagedR(p, q, true)
		if err != nil {
			for _, h := range handles {
				en.release(h)
			}
			en.syncDevices(p)
			if deviceFailure(err) {
				return en.demote(p, indices, err)
			}
			return fmt.Errorf("workload: query %s: %w", q.ID, err)
		}
		handles = append(handles, st)
		sink := q.Sink
		if sink == nil {
			sink = &join.CountSink{}
		}
		hs := &holdSink{inner: sink}
		held = append(held, hs)
		sink = hs
		// The rider's R-scan buffer: IOChunk-sized when the share
		// allows, so per-chunk R re-scans amortize the disk's
		// per-request positioning overhead; at most half the share, so
		// the S double buffers keep the larger part of memory (bigger S
		// chunks mean fewer R re-scans, which dominates traffic).
		mr := mShare / 2
		if mr > res.IOChunk {
			mr = res.IOChunk
		}
		if mr < 1 {
			mr = 1
		}
		riders = append(riders, join.SharedQuery{
			R: q.R, StagedR: st.file, FilterS: q.FilterS,
			Sink: sink, MrBlocks: mr,
		})
	}

	en.mount(p, en.session.DriveS(), bigS.Media, "S")
	en.logf(p, "shared pass over S=%s with %d riders", bigS.Name, len(riders))
	shared, err := en.session.ExecShared(p, bigS, riders, res.MemoryBlocks)
	for _, h := range handles {
		en.release(h)
	}
	en.syncDevices(p)
	if err != nil {
		if deviceFailure(err) {
			return en.demote(p, indices, err)
		}
		return fmt.Errorf("workload: shared pass over %s: %w", bigS.Name, err)
	}
	for _, hs := range held {
		hs.commit(p)
	}
	en.out.SharedPasses++
	en.sharedC.Inc()
	end := sim.Duration(p.Now())
	for i, qi := range indices {
		q := en.queries[qi]
		en.results[qi] = QueryResult{
			ID: q.ID, Requested: q.Method, Method: "SHARED",
			Substituted: q.Method != "", Shared: true,
			CacheHit: handles[i].hit,
			Start:    start, End: end, Wait: start - q.arrived,
			Matches:    shared.Matches[i],
			OutputHash: sinkHash(held[i].inner),
		}
	}
	return nil
}
