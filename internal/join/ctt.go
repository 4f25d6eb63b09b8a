package join

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/sim"
)

// estBucketBlocks estimates one bucket's on-disk size for a relation
// of n blocks over b buckets, with slack for the partial trailing
// block and hash-value variance.
func estBucketBlocks(n int64, b int) int64 {
	est := (n + int64(b) - 1) / int64(b)
	// Hash-variance slack: relative variance grows as buckets shrink,
	// so small buckets get proportionally more headroom.
	return est + est/8 + 2
}

// assemblableBucket returns the largest bucket (in blocks) whose
// estimated on-disk size fits in d blocks of assembly area — the
// inverse of estBucketBlocks' slack.
func assemblableBucket(d int64) int64 {
	// Buckets are bounded to half the assembly area: the window keeps
	// one estimated bucket of headroom so that hash-variance outliers
	// never overflow the disk (see hashRelationToTape).
	v := (d/2 - 2) * 8 / 9
	if v < 1 {
		v = 1
	}
	return v
}

// planTapeTape computes the bucket plan for a tape-tape method:
// buckets are bounded both by memory (join phase) and by the disk
// assembly area (Step I).
func planTapeTape(rBlocks, mBlocks, dBlocks int64) (hashutil.Plan, error) {
	return hashutil.PlanBucketsBounded(rBlocks, mBlocks, assemblableBucket(dBlocks))
}

// appendFileToTape streams a disk file to the drive's end of data and
// returns the contiguous region written. xform, when non-nil, rewrites
// each batch of blocks before the tape write (with eof set on the last
// batch so a stateful transform can flush) — the skew spool uses it to
// project one partition out of a bucket file. When pipelined, disk
// reads overlap tape writes through a small queue (the concurrent
// methods); otherwise the two alternate in one process (the sequential
// TT-GH).
func appendFileToTape(e *env, p *sim.Proc, f device.File, dst device.Drive, pipelined bool,
	xform func(blks []block.Block, eof bool) ([]block.Block, error)) (device.Region, error) {
	sp := e.span(p, "spool-bucket", obs.AInt("blocks", f.Len()))
	defer sp.Close(p)
	var region device.Region
	write := func(wp *sim.Proc, blks []block.Block) error {
		reg, err := dst.Append(wp, blks)
		if err != nil {
			return err
		}
		if region.N == 0 {
			region = reg
		} else {
			if reg.Start != region.End() {
				return fmt.Errorf("join: bucket append not contiguous at %d", reg.Start)
			}
			region.N += reg.N
		}
		return nil
	}

	if !pipelined {
		for off := int64(0); off < f.Len(); off += e.res.IOChunk {
			g := min64(e.res.IOChunk, f.Len()-off)
			blks, err := e.diskRead(p, f, off, g)
			if err != nil {
				return device.Region{}, err
			}
			if xform != nil {
				if blks, err = xform(blks, off+g >= f.Len()); err != nil {
					return device.Region{}, err
				}
			}
			if len(blks) == 0 {
				continue
			}
			if err := write(p, blks); err != nil {
				return device.Region{}, err
			}
		}
		return region, nil
	}

	type readMsg struct {
		blks []block.Block
		err  error
	}
	q := sim.NewQueue[readMsg](e.k, "append-pipe", 2)
	reader := e.k.Spawn("bucket-reader", func(rp *sim.Proc) {
		for off := int64(0); off < f.Len(); off += e.res.IOChunk {
			g := min64(e.res.IOChunk, f.Len()-off)
			blks, err := e.diskRead(rp, f, off, g)
			if err == nil && xform != nil {
				blks, err = xform(blks, off+g >= f.Len())
			}
			if err != nil {
				q.Send(rp, readMsg{err: err})
				break
			}
			if len(blks) == 0 {
				continue
			}
			q.Send(rp, readMsg{blks: blks})
		}
		q.Close(rp)
	})
	var pipeErr error
	for {
		m, ok := q.Recv(p)
		if !ok {
			break
		}
		if m.err != nil || pipeErr != nil {
			if m.err != nil && pipeErr == nil {
				pipeErr = m.err
			}
			continue
		}
		if err := write(p, m.blks); err != nil {
			pipeErr = err
		}
	}
	if err := p.Wait(reader); err != nil {
		return device.Region{}, err
	}
	if pipeErr != nil {
		return device.Region{}, pipeErr
	}
	return region, nil
}

// hashRelationToTape implements Step I of the tape–tape methods: the
// source relation is hash-partitioned into plan.B buckets, a disk-load
// of buckets at a time. Each scan reads the source end to end, keeps
// the tuples of the current bucket window, assembles those buckets in
// full on disk, and appends them to dst's scratch space. Returns the
// per-partition tape regions, stored contiguously in spool order.
//
// skew, when non-nil, is the in/out skew-refinement handle. On the
// build-side pass (sketch true, *skew nil) the first full scan
// sketches key frequencies and counts exact bucket sizes, then builds
// a SkewPlan before anything is spooled; with sketch false the
// handle's plan — R's, possibly nil — is applied as-is, so TT-GH's S
// pass lands on exactly R's partition map and never invents its own
// (an oversized S bucket is harmless: only R partitions must fit
// memory). A refined bucket is still assembled whole on disk, but
// spooled one partition at a time: each sub-partition or isolated key
// becomes its own tape region, read back by the join phase as an
// ordinary (now memory-sized) bucket. Sketch, counts and plan are
// deterministic, so a recovery replay lands on the same tape layout.
func hashRelationToTape(e *env, p *sim.Proc, src device.Drive, region device.Region,
	tuplesPerBlock int, tag byte, plan hashutil.Plan, dst device.Drive,
	pipelined bool, keep keepFn, scans *int, skew **hashutil.SkewPlan, sketch bool) ([]device.Region, error) {

	b := plan.B
	est := estBucketBlocks(region.N, b)

	cur := func() *hashutil.SkewPlan {
		if skew == nil {
			return nil
		}
		return *skew
	}
	partsOf := func(bkt int) []int {
		if sp := cur(); sp != nil {
			return sp.PartsOf(bkt)
		}
		return []int{bkt}
	}
	nparts := b
	if sp := cur(); sp != nil {
		nparts = sp.NParts
	}
	regions := make([]device.Region, nparts)
	// Sketch only while the plan is still open: the build-side pass.
	sketched := !sketch || skew == nil || *skew != nil
	done := 0
	for done < b {
		lo := done
		hi := lo // set inside the unit; a restart may shrink the window

		// One window is one restartable unit. Buckets already appended
		// to tape by an earlier attempt keep their regions; a restart
		// re-scans the source for the missing buckets only. A partially
		// appended bucket leaves garbage at the scratch EOD, which is
		// simply abandoned — tape appends are monotonic.
		err := e.runUnit(p, fmt.Sprintf("hash-window@%d", lo), func(up *sim.Proc) error {
			sp := e.span(up, "hash-window", obs.AInt("lo", int64(lo)))
			defer sp.Close(up)
			// Window sizing happens per attempt against the surviving
			// array, so a disk lost mid-run shrinks subsequent windows
			// (costing extra scans) instead of overflowing the disks.
			g := windowBuckets(e.effectiveD(), est)
			if g < 1 {
				return fmt.Errorf("%w: D=%d cannot assemble one %d-block bucket with headroom",
					ErrNeedDisk, e.effectiveD(), est)
			}
			if g > int64(b-lo) {
				g = int64(b - lo)
			}
			hi = lo + int(g)
			window := hi - lo
			need := make([]bool, window)
			anyNeed := false
			for i := 0; i < window; i++ {
				// A bucket is outstanding while any of its partitions
				// lacks a tape region (all of them, before a skew plan).
				for _, part := range partsOf(lo + i) {
					if regions[part].N == 0 {
						need[i] = true
						anyNeed = true
						break
					}
				}
			}
			if !anyNeed {
				return nil
			}
			files := make([]device.File, window)
			defer freeAll(files)
			for i := 0; i < window; i++ {
				if !need[i] {
					continue
				}
				f, err := e.disks.Create(fmt.Sprintf("hb%d", lo+i), nil)
				if err != nil {
					return err
				}
				files[i] = f
			}

			var sk *hashutil.FreqSketch
			var counts []int64
			if !sketched {
				if sk = e.newSketch(); sk == nil {
					sketched = true
				} else {
					counts = make([]int64, b)
				}
			}
			err := func() error {
				memNeed := int64(window)*plan.WriteBuf + plan.InBuf
				e.mem.acquire(memNeed)
				defer e.mem.release(memNeed)
				pt := newPartitioner(b, plan.WriteBuf, tuplesPerBlock, tag,
					func(fp *sim.Proc, bkt int, blks []block.Block) error {
						return files[bkt-lo].Append(fp, blks)
					})
				pt.only = func(bkt int) bool { return bkt >= lo && bkt < hi && need[bkt-lo] }
				pt.sketch = sk

				keepCount := keep
				if counts != nil {
					keepCount = func(t block.Tuple) bool {
						if keep != nil && !keep(t) {
							return false
						}
						counts[hashutil.Bucket(t.Key, b)]++
						return true
					}
				}
				err := e.readTape(up, src, region, plan.InBuf, func(_ int64, blks []block.Block) error {
					return pt.addBlocks(up, blks, keepCount)
				})
				if err != nil {
					return err
				}
				return pt.finish(up)
			}()
			if err != nil {
				return err
			}
			*scans++

			// The full scan just completed the sketch and the exact
			// bucket census; refine the plan before anything spools so
			// every region lands at its final partition index.
			if sk != nil {
				sizes := make([]int64, b)
				for i, c := range counts {
					sizes[i] = (c + int64(tuplesPerBlock) - 1) / int64(tuplesPerBlock)
				}
				nsp := hashutil.BuildSkewPlan(plan, sizes, sk, tuplesPerBlock,
					skewTarget(plan, e.res.MemoryBlocks), int(e.res.MemoryBlocks-1))
				sketched = true
				if !nsp.Trivial() {
					*skew = nsp
					e.stats.HeavyHitters = len(nsp.Heavy)
					e.stats.SkewPartitions = nsp.NParts
					regions = append(regions, make([]device.Region, nsp.NParts-len(regions))...)
				}
			}

			// Append the completed buckets to the destination tape in
			// bucket order, refined buckets one partition at a time.
			for i, f := range files {
				if f == nil {
					continue
				}
				parts := partsOf(lo + i)
				if len(parts) == 1 {
					reg, err := appendFileToTape(e, up, f, dst, pipelined, nil)
					if err != nil {
						return err
					}
					regions[lo+i] = reg
				} else {
					for _, part := range parts {
						if regions[part].N != 0 {
							continue // spooled by an attempt this restart superseded
						}
						reg, err := appendFileToTape(e, up, f, dst, pipelined,
							partFilter(cur(), part, tuplesPerBlock, tag))
						if err != nil {
							return err
						}
						regions[part] = reg
					}
				}
				f.Free()
				files[i] = nil
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		done = hi
	}
	return regions, nil
}

// windowBuckets sizes a Step I assembly window for d blocks of disk:
// per-bucket estimates already carry variance slack, and over a wide
// window those margins pool, so large windows need no extra headroom.
// Narrow windows (1-2 buckets) cannot pool, so they reserve one whole
// estimated bucket against a hash-variance outlier.
func windowBuckets(d, est int64) int64 {
	g := d / est
	if g <= 2 {
		g = (d - est) / est
	}
	return g
}

// CTTGH is Concurrent Tape–Tape Grace Hash Join (Section 5.2.1): R is
// hashed from tape to tape using disk as an assembly area, then S is
// hashed to disk a chunk at a time (double-buffered) and joined with
// the tape-resident R buckets. The only method whose disk requirement
// is independent of |R| — the paper's sole candidate for very large
// joins.
type CTTGH struct{}

// Name implements Method.
func (CTTGH) Name() string { return "Concurrent Tape-Tape Grace Hash Join" }

// Symbol implements Method.
func (CTTGH) Symbol() string { return "CTT-GH" }

// Check implements Method: M >= sqrt(|R|); D holds one R bucket and
// one block per S bucket; R's tape has scratch space for its hashed
// copy (T_R = |R| in Table 2).
func (CTTGH) Check(spec Spec, res Resources) error {
	plan, err := planTapeTape(spec.R.Region.N, res.MemoryBlocks, res.DiskBlocks)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNeedMemory, err)
	}
	if est := estBucketBlocks(spec.R.Region.N, plan.B); res.DiskBlocks < 2*est {
		return fmt.Errorf("%w: D=%d cannot assemble one %d-block R bucket with headroom", ErrNeedDisk, res.DiskBlocks, est)
	}
	if res.DiskBlocks < int64(plan.B)+1 {
		return fmt.Errorf("%w: D=%d cannot buffer S over %d buckets", ErrNeedDisk, res.DiskBlocks, plan.B)
	}
	if scratch := spec.R.Media.Free(); scratch < spec.R.Region.N+int64(plan.B) {
		return fmt.Errorf("%w: R tape has %d free, hashed R needs ~%d",
			ErrNeedTapeScratch, scratch, spec.R.Region.N+int64(plan.B))
	}
	return nil
}

func (CTTGH) run(e *env, p *sim.Proc) error {
	plan, err := planTapeTape(e.spec.R.Region.N, e.res.MemoryBlocks, e.res.DiskBlocks)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNeedMemory, err)
	}
	// Step I: hash R from the R tape back onto the R tape's scratch
	// space, assembling a disk-load of buckets per scan.
	var skp *hashutil.SkewPlan
	rRegions, err := hashRelationToTape(e, p, e.driveR, e.spec.R.Region,
		e.spec.R.TuplesPerBlock, e.spec.R.Tag, plan, e.driveR, true, e.filterR(), &e.stats.RScans, &skp, true)
	if err != nil {
		return err
	}
	e.markStepI(p)

	scanBuf := scanBufFor(plan, e.res.MemoryBlocks)
	maxLoad := e.res.MemoryBlocks - scanBuf
	sLay := probeLayout(plan, skp, e.res.MemoryBlocks)

	// Step II: all of the (surviving) disk space double-buffers the S
	// buckets (|S_i| = d = D).
	dbuf := e.newDoubleBuffer("s-buckets", e.effectiveD())
	chunkCap := dbuf.ChunkCapacity() - int64(sLay.parts)
	if chunkCap < 1 {
		return fmt.Errorf("%w: D=%d cannot buffer S over %d buckets", ErrNeedDisk, e.effectiveD(), sLay.parts)
	}

	q := sim.NewQueue[ghChunk](e.k, "ctt-chunks", 1)
	hasher := spawnChunkHasher(e, q, sLay, chunkCap, dbuf)

	// With a bi-directional drive, alternate the bucket scan direction
	// each iteration: the head finishes iteration i exactly where
	// iteration i+1 begins, eliminating the long seek back across the
	// hashed-R run (the paper's footnote-2 observation that the
	// algorithms are independent of scan direction).
	biDir := e.driveR.Config().BiDirectional
	var pipeErr error
	nextOff := int64(0)
	for {
		c, ok := q.Recv(p)
		if !ok {
			break
		}
		if c.err != nil || pipeErr != nil {
			drainChunk(e, p, dbuf, c, &pipeErr)
			continue
		}
		backward := biDir && c.iter%2 == 1
		sp := e.span(p, "join-chunk", obs.AInt("off", c.off))
		err := e.staged(p, func() error {
			for b := 0; b < sLay.parts; b++ {
				idx := b
				if backward {
					idx = sLay.parts - 1 - b
				}
				rSrc := tapeBucket{drive: e.driveR, region: rRegions[idx], reverse: backward}
				if err := joinBucketPair(e, p, rSrc, diskBucket{c.files[idx]}, maxLoad, scanBuf); err != nil {
					for ; b < sLay.parts; b++ {
						idx := b
						if backward {
							idx = sLay.parts - 1 - b
						}
						dbuf.Release(p, c.iter, c.files[idx].Len())
						c.files[idx].Free()
					}
					return err
				}
				dbuf.Release(p, c.iter, c.files[idx].Len())
				c.files[idx].Free()
			}
			return nil
		})
		sp.Close(p)
		if err != nil {
			pipeErr = err
			e.abort = true
			continue
		}
		e.stats.Iterations++
		e.stats.RScans++
		nextOff = c.off + c.n
	}
	if err := p.Wait(hasher); err != nil {
		return err
	}
	e.abort = false
	if pipeErr != nil {
		if e.res.Recovery.Disabled || !e.unitRecoverable(pipeErr) {
			return pipeErr
		}
		// Sequential tail for the rest of S. The hashed R buckets live
		// on tape, untouched by any disk loss, so ensureR is a no-op
		// and chunk sizing gets the whole surviving disk.
		return ghStepIISeq(e, p, plan, sLay, nextOff,
			func(*sim.Proc) error { return nil },
			func(b int) bucketSource { return tapeBucket{drive: e.driveR, region: rRegions[b]} },
			func() int64 { return 0 })
	}
	return nil
}
