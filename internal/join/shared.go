package join

import (
	"errors"
	"fmt"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/sim"
)

// SharedQuery is one rider of a shared S-scan: a query whose R side is
// already disk-resident and that piggybacks on a single tape pass over
// the common S relation. The scan fans every streamed S chunk out to
// each rider's probe operator.
type SharedQuery struct {
	// R is the rider's small relation (used for sizing and stats).
	R *relation.Relation
	// StagedR is R's disk-resident copy, staged via Session.StageR or
	// the workload cache. Required; ownership stays with the caller.
	StagedR device.File
	// FilterS, when non-nil, drops S tuples from this rider's output
	// only — the other riders still see them.
	FilterS func(block.Tuple) bool
	// Sink receives the rider's output pairs; nil counts matches only.
	Sink Sink
	// MrBlocks is the rider's R-scan buffer (admission control's
	// per-query memory partition). Minimum 1.
	MrBlocks int64
}

// SharedResult reports one shared S-scan pass.
type SharedResult struct {
	// Stats aggregates the pass across all riders: Response is the
	// pass's own duration, tape/disk counters are per-pass deltas,
	// Iterations counts S chunks.
	Stats Stats
	// Matches holds each rider's output cardinality, index-aligned
	// with the queries argument.
	Matches []int64
}

// ExecShared runs one shared pass over bigS for all riders: S streams
// from tape once in double-buffered chunks (CDT-NB/MB style, one
// reader proc ahead of the join); for each chunk one shared hash
// table is built, and every rider's disk-resident R scans against it
// in turn. Compared to running the riders back to back, S's tape cost
// is paid once instead of len(queries) times.
//
// memBlocks is the memory budget for the pass (0 = the session's M):
// each rider reserves MrBlocks for its R scan and the remainder splits
// into two S chunk buffers.
func (s *Session) ExecShared(p *sim.Proc, bigS *relation.Relation, queries []SharedQuery, memBlocks int64) (*SharedResult, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("join: shared scan with no riders")
	}
	if memBlocks <= 0 {
		memBlocks = s.res.MemoryBlocks
	}
	var mrTotal int64
	for i := range queries {
		q := &queries[i]
		if q.StagedR == nil || q.StagedR.Lost() {
			return nil, fmt.Errorf("join: shared-scan rider %d has no staged R", i)
		}
		if q.Sink == nil {
			q.Sink = &CountSink{}
		}
		if q.MrBlocks < 1 {
			q.MrBlocks = 1
		}
		mrTotal += q.MrBlocks
	}
	// Two S buffers share what the R scans leave: the reader fills one
	// chunk while the riders drain the other.
	ms := (memBlocks - mrTotal) / 2
	if ms < 1 {
		return nil, fmt.Errorf("%w: M=%d cannot buffer S for %d shared riders",
			ErrNeedMemory, memBlocks, len(queries))
	}

	if s.driveS.Media() != bigS.Media {
		s.driveS.Load(bigS.Media)
	}
	snap := s.snapshot()
	s.disks.ResetHighWater()

	res := s.res
	res.MemoryBlocks = memBlocks
	// The env's spec is only a carrier here: shared scans read S via
	// the region below and each rider's R from its staged file.
	e := s.newEnv(p.Now(), Spec{R: queries[0].R, S: bigS}, res, &CountSink{})
	sp := e.span(p, "shared-scan",
		obs.AInt("riders", int64(len(queries))), obs.AInt("s_blocks", bigS.Region.N))

	region := bigS.Region
	type chunk struct {
		blks []block.Block
		off  int64
		n    int64
		err  error
	}
	bufs := sim.NewContainer(e.k, "shared-bufs", 2, 2)
	q := sim.NewQueue[chunk](e.k, "shared-chunks", 1)

	reader := e.k.Spawn("shared-s-reader", func(rp *sim.Proc) {
		for off := int64(0); off < region.N && !e.abort; off += ms {
			n := min64(ms, region.N-off)
			bufs.Get(rp, 1)
			e.mem.acquire(n)
			ssp := e.span(rp, "stage-S", obs.AInt("off", off))
			blks, err := e.tapeRead(rp, e.driveS, region.Start+addr(off), n)
			ssp.Close(rp)
			if err != nil {
				e.mem.release(n)
				bufs.Put(rp, 1)
				q.Send(rp, chunk{off: off, err: err})
				break
			}
			q.Send(rp, chunk{blks: blks, off: off, n: n})
		}
		q.Close(rp)
	})

	var pipeErr error
	for {
		c, ok := q.Recv(p)
		if !ok {
			break
		}
		if c.err != nil || pipeErr != nil {
			if c.err != nil && pipeErr == nil {
				pipeErr = c.err
			}
			if c.blks != nil {
				e.mem.release(c.n)
				bufs.Put(p, 1)
			}
			continue
		}
		err := sharedJoinChunk(e, p, c.blks, c.off, queries)
		e.mem.release(c.n)
		bufs.Put(p, 1)
		if errors.Is(err, ErrStopped) {
			// Every rider satisfied: stop the scan but keep draining the
			// queue so the reader can finish its Send and exit.
			e.stats.Stopped = true
			e.abort = true
			continue
		}
		if err != nil {
			pipeErr = err
			e.abort = true
			continue
		}
		e.stats.Iterations++
	}
	if err := p.Wait(reader); err != nil {
		sp.Close(p)
		return nil, err
	}
	e.abort = false
	sp.Close(p)
	if pipeErr != nil {
		return nil, fmt.Errorf("shared-scan: %w", pipeErr)
	}

	s.finishStats(e, p.Now(), snap)
	out := &SharedResult{Stats: *e.stats}
	out.Stats.OutputTuples = 0
	for i := range queries {
		out.Matches = append(out.Matches, queries[i].Sink.Count())
		out.Stats.OutputTuples += queries[i].Sink.Count()
	}
	return out, nil
}

// sharedJoinChunk builds one hash table over an S chunk and probes
// every rider's disk-resident R against it. Riders run sequentially —
// the disk array is the shared resource and its contention is what the
// simulation accounts — with per-rider S filters applied at emission.
// Riders whose StreamSink is already satisfied skip their probe scan;
// once every rider is satisfied the chunk returns ErrStopped so the
// pass can stop pulling S from tape.
func sharedJoinChunk(e *env, p *sim.Proc, blks []block.Block, off int64, queries []SharedQuery) error {
	if err := e.checkStop(); err != nil {
		return err
	}
	if allRidersSatisfied(queries) {
		return ErrStopped
	}
	sp := e.span(p, "join-chunk", obs.AInt("off", off))
	defer sp.Close(p)
	table := newHashTable()
	if err := table.addBlocks(blks); err != nil {
		return err
	}
	for i := range queries {
		q := &queries[i]
		if ss, ok := q.Sink.(StreamSink); ok && ss.Satisfied() {
			continue
		}
		psp := e.span(p, "probe", obs.AInt("rider", int64(i)))
		e.mem.acquire(q.MrBlocks)
		err := func() error {
			fR := q.StagedR
			for roff := int64(0); roff < fR.Len(); roff += q.MrBlocks {
				n := min64(q.MrBlocks, fR.Len()-roff)
				rBlks, err := e.diskRead(p, fR, roff, n)
				if err != nil {
					return err
				}
				err = forEachTuple(rBlks, func(rt block.Tuple) {
					for i := table.first(rt.Key); i >= 0; i = table.next[i] {
						st := table.tuples[i]
						if q.FilterS != nil && !q.FilterS(st) {
							continue
						}
						q.Sink.Emit(p, rt, st)
					}
				})
				if err != nil {
					return err
				}
			}
			return nil
		}()
		e.mem.release(q.MrBlocks)
		psp.Close(p)
		if err != nil {
			return err
		}
	}
	return nil
}

// allRidersSatisfied reports whether every rider's sink is a satisfied
// StreamSink — the shared pass has nothing left to produce.
func allRidersSatisfied(queries []SharedQuery) bool {
	for i := range queries {
		ss, ok := queries[i].Sink.(StreamSink)
		if !ok || !ss.Satisfied() {
			return false
		}
	}
	return true
}
