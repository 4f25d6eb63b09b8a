package join

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/buffer"
	"repro/internal/device"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/sim"
)

// addr converts a block offset to a tape address.
func addr(n int64) device.Addr { return device.Addr(n) }

// bucketSource abstracts where a hash bucket lives: a disk file or a
// tape region. Reads charge the owning device.
type bucketSource interface {
	blocks() int64
	device() (kind, name string)
	read(p *sim.Proc, off, n int64) ([]block.Block, error)
}

type diskBucket struct{ f device.File }

func (d diskBucket) blocks() int64            { return d.f.Len() }
func (d diskBucket) device() (string, string) { return "disk:", d.f.Name() }
func (d diskBucket) read(p *sim.Proc, off, n int64) ([]block.Block, error) {
	return d.f.ReadAt(p, off, n)
}

type tapeBucket struct {
	drive  device.Drive
	region device.Region
	// reverse reads the whole bucket backward (paper footnote 2):
	// used by CTT-GH's joiner on alternate iterations so the head
	// never seeks back across the bucket run. Applies only to a
	// full-bucket read; partial reads fall back to forward.
	reverse bool
}

func (t tapeBucket) blocks() int64            { return t.region.N }
func (t tapeBucket) device() (string, string) { return "tape:", t.drive.Name() }
func (t tapeBucket) read(p *sim.Proc, off, n int64) ([]block.Block, error) {
	if t.reverse && off == 0 && n == t.region.N {
		return t.drive.ReadRegionReverse(p, t.region)
	}
	return t.drive.ReadAt(p, t.region.Start+addr(off), n)
}

// scanBufFor sizes the S-side streaming buffer for the join phase:
// whatever memory remains next to a full R bucket, aiming for the
// plan's input-buffer size. At minimal memory this is a single block,
// making bucket scans random-I/O-like (the Figure 8 small-M uptick).
func scanBufFor(plan hashutil.Plan, m int64) int64 {
	sb := m - plan.BucketBlocks
	if sb > plan.InBuf {
		sb = plan.InBuf
	}
	if sb < 1 {
		sb = 1
	}
	return sb
}

// joinBucketPair loads the R bucket into a memory hash table and
// streams the matching S bucket through it. Oversized R buckets
// (hash-value skew) fall back to multiple memory loads, each paying a
// full scan of the S bucket.
func joinBucketPair(e *env, p *sim.Proc, r, s bucketSource, maxLoad, scanBuf int64) error {
	if maxLoad < 1 {
		return fmt.Errorf("%w: no memory for R bucket", ErrNeedMemory)
	}
	sp := e.span(p, "bucket-pair",
		obs.AInt("r_blocks", r.blocks()), obs.AInt("s_blocks", s.blocks()))
	defer sp.Close(p)
	for roff := int64(0); roff < r.blocks(); roff += maxLoad {
		n := min64(maxLoad, r.blocks()-roff)
		err := func() error {
			e.mem.acquire(n)
			defer e.mem.release(n)
			rBlks, err := e.readSrc(p, r, roff, n)
			if err != nil {
				return err
			}
			table := newHashTable()
			if err := table.addBlocks(rBlks); err != nil {
				return err
			}

			e.mem.acquire(scanBuf)
			defer e.mem.release(scanBuf)
			for soff := int64(0); soff < s.blocks(); soff += scanBuf {
				g := min64(scanBuf, s.blocks()-soff)
				sBlks, err := e.readSrc(p, s, soff, g)
				if err != nil {
					return err
				}
				err = forEachTuple(sBlks, func(t block.Tuple) {
					table.probeWithS(e, p, t)
				})
				if err != nil {
					return err
				}
				if err := e.checkStop(); err != nil {
					return err
				}
			}
			return nil
		}()
		if err != nil {
			return err
		}
	}
	return nil
}

// partitionTapeToDisk hash-partitions a tape-resident relation (or a
// chunk of it) into per-partition striped disk files, following lay's
// partition count, buffers and routing. Returns the partition files.
// sk, when non-nil, observes every surviving key (the skew sketch).
// reserve, when non-nil, is called with the block count of each flush
// before the disk write — concurrent methods use it to acquire
// double-buffer space.
func partitionTapeToDisk(e *env, p *sim.Proc, drive device.Drive, region device.Region,
	tuplesPerBlock int, tag byte, lay layout, namePrefix string,
	keep keepFn, sk *hashutil.FreqSketch, reserve func(p *sim.Proc, n int64)) ([]device.File, error) {

	files := make([]device.File, lay.parts)
	ok := false
	defer func() {
		// A failed partition frees every bucket file, so retried units
		// never leak disk space.
		if !ok {
			freeAll(files)
		}
	}()
	for i := range files {
		f, err := e.disks.Create(fmt.Sprintf("%s%d", namePrefix, i), nil)
		if err != nil {
			return nil, err
		}
		files[i] = f
	}
	e.mem.acquire(lay.memory())
	defer e.mem.release(lay.memory())

	pt := newPartitioner(lay.parts, lay.writeBuf, tuplesPerBlock, tag,
		func(fp *sim.Proc, bkt int, blks []block.Block) error {
			if reserve != nil {
				reserve(fp, int64(len(blks)))
			}
			return files[bkt].Append(fp, blks)
		})
	pt.route = lay.route
	pt.sketch = sk
	err := e.readTape(p, drive, region, lay.inBuf, func(_ int64, blks []block.Block) error {
		return pt.addBlocks(p, blks, keep)
	})
	if err != nil {
		return nil, err
	}
	if err := pt.finish(p); err != nil {
		return nil, err
	}
	ok = true
	return files, nil
}

// checkGH verifies the shared Grace Hash feasibility: the Table 2
// memory requirement M >= sqrt(|R|) (exact at block granularity) and
// disk room for R's buckets plus at least one block per S bucket.
func checkGH(spec Spec, res Resources) (hashutil.Plan, error) {
	plan, err := hashutil.PlanBuckets(spec.R.Region.N, res.MemoryBlocks)
	if err != nil {
		return plan, fmt.Errorf("%w: %v", ErrNeedMemory, err)
	}
	// R's bucket files may exceed |R| by up to one partial block per
	// bucket; an S chunk needs at least one block plus the same
	// partial-block slack.
	need := spec.R.Region.N + 2*int64(plan.B) + 2
	if res.DiskBlocks < need {
		return plan, fmt.Errorf("%w: D=%d < |R|+2B+2=%d", ErrNeedDiskForR, res.DiskBlocks, need)
	}
	return plan, nil
}

// totalLen sums file lengths.
func totalLen(files []device.File) int64 {
	var n int64
	for _, f := range files {
		n += f.Len()
	}
	return n
}

// freeAll frees every non-nil file.
func freeAll(files []device.File) {
	for _, f := range files {
		if f != nil {
			f.Free()
		}
	}
}

// ensureRBuckets (re)partitions R into disk bucket files when they are
// absent or lost extents to a failed disk. Re-entry pays a fresh tape
// scan of R, counted in RScans. When skew-aware partitioning is on,
// the pass sketches key frequencies while partitioning and then
// repairs oversized buckets on disk, publishing the refined plan
// through skp; both the sketch and the repair are deterministic, so a
// recovery replay rebuilds the identical layout.
func (e *env) ensureRBuckets(p *sim.Proc, plan hashutil.Plan, fRB *[]device.File, skp **hashutil.SkewPlan) error {
	if *fRB != nil && !anyLost(*fRB) {
		return nil
	}
	if *fRB != nil {
		freeAll(*fRB)
		*fRB = nil
	}
	sk := e.newSketch()
	sp := e.span(p, "hash-R", obs.AInt("buckets", int64(plan.B)))
	files, err := partitionTapeToDisk(e, p, e.driveR, e.spec.R.Region,
		e.spec.R.TuplesPerBlock, e.spec.R.Tag, layoutOf(plan), "rb", e.filterR(), sk, nil)
	sp.Close(p)
	if err != nil {
		return err
	}
	if sk != nil {
		files, *skp, err = e.repairRSkew(p, plan, files, sk,
			e.spec.R.TuplesPerBlock, e.spec.R.Tag, "rb")
		if err != nil {
			// repairRSkew freed every partition file already.
			return err
		}
	}
	*fRB = files
	e.stats.RScans++
	return nil
}

// ghStepIISeq is the sequential Step II of the Grace Hash methods and
// the recovery tail of the concurrent ones: starting at startOff,
// partition a disk-sized chunk of S into bucket files (following sLay,
// which matches R's final partition map when a skew plan refined it)
// and join each against its R partition. Each chunk is one restartable
// unit with bucket-granularity checkpoints: committed buckets are
// skipped on restart, ensureR re-stages R if a disk loss destroyed it,
// and chunk sizing follows the surviving disk capacity.
func ghStepIISeq(e *env, p *sim.Proc, plan hashutil.Plan, sLay layout, startOff int64,
	ensureR func(*sim.Proc) error, rSrc func(b int) bucketSource, rDiskLen func() int64) error {

	scanBuf := scanBufFor(plan, e.res.MemoryBlocks)
	maxLoad := e.res.MemoryBlocks - scanBuf
	s := e.spec.S.Region
	for off := startOff; off < s.N; {
		var n int64 // fixed once a bucket commits, so checkpoints stay valid
		doneB := 0
		var fSB []device.File
		err := e.runUnit(p, fmt.Sprintf("S-chunk@%d", off), func(up *sim.Proc) error {
			if err := ensureR(up); err != nil {
				return err
			}
			if doneB == 0 {
				d := e.effectiveD() - rDiskLen()
				chunk := d - int64(sLay.parts)
				if chunk < 1 {
					return fmt.Errorf("%w: %d blocks left to buffer S over %d buckets", ErrNeedDisk, d, sLay.parts)
				}
				n = min64(chunk, s.N-off)
			}
			if fSB != nil {
				freeAll(fSB)
				fSB = nil
			}
			sp := e.span(up, "stage-S", obs.AInt("off", off))
			var err error
			fSB, err = partitionTapeToDisk(e, up, e.driveS, s.Sub(off, n),
				e.spec.S.TuplesPerBlock, e.spec.S.Tag, sLay, "sb", e.filterS(), nil, nil)
			sp.Close(up)
			if err != nil {
				return err
			}
			for b := doneB; b < sLay.parts; b++ {
				b := b
				if err := e.staged(up, func() error {
					return joinBucketPair(e, up, rSrc(b), diskBucket{fSB[b]}, maxLoad, scanBuf)
				}); err != nil {
					return err
				}
				doneB = b + 1
			}
			return nil
		})
		if fSB != nil {
			freeAll(fSB)
		}
		if err != nil {
			return err
		}
		e.stats.Iterations++
		e.stats.RScans++
		off += n
	}
	return nil
}

// DTGH is Disk–Tape Grace Hash Join (Section 5.1.2): sequential; hash
// R from tape into disk buckets, then repeatedly hash a d = D - |R|
// chunk of S to disk and join it bucket by bucket.
type DTGH struct{}

// Name implements Method.
func (DTGH) Name() string { return "Disk-Tape Grace Hash Join" }

// Symbol implements Method.
func (DTGH) Symbol() string { return "DT-GH" }

// Check implements Method.
func (DTGH) Check(spec Spec, res Resources) error {
	_, err := checkGH(spec, res)
	return err
}

func (DTGH) run(e *env, p *sim.Proc) error {
	plan, err := checkGH(e.spec, e.res)
	if err != nil {
		return err
	}
	// Step I: hash R from tape to disk buckets, restartable as one unit.
	var fRB []device.File
	var skp *hashutil.SkewPlan
	ensure := func(up *sim.Proc) error { return e.ensureRBuckets(up, plan, &fRB, &skp) }
	if err := e.runUnit(p, "hash-R", ensure); err != nil {
		return err
	}
	e.markStepI(p)

	// Step II: iterate chunks of S sized to the spare disk space
	// (partitioning an n-block chunk can emit up to n + B blocks — one
	// partial per bucket — so each chunk leaves that slack). S follows
	// R's final partition map, skew-refined or not.
	err = ghStepIISeq(e, p, plan, probeLayout(plan, skp, e.res.MemoryBlocks), 0, ensure,
		func(b int) bucketSource { return diskBucket{fRB[b]} },
		func() int64 { return totalLen(fRB) })
	if err != nil {
		return err
	}
	freeAll(fRB)
	return nil
}

// CDTGH is Concurrent Disk–Tape Grace Hash Join (Section 5.1.4): as
// DT-GH, but the S bucket area on disk is double-buffered so hashing
// chunk i+1 from tape overlaps joining chunk i.
type CDTGH struct{}

// Name implements Method.
func (CDTGH) Name() string { return "Concurrent Disk-Tape Grace Hash Join" }

// Symbol implements Method.
func (CDTGH) Symbol() string { return "CDT-GH" }

// Check implements Method.
func (CDTGH) Check(spec Spec, res Resources) error {
	_, err := checkGH(spec, res)
	return err
}

func (CDTGH) run(e *env, p *sim.Proc) error {
	plan, err := checkGH(e.spec, e.res)
	if err != nil {
		return err
	}
	var fRB []device.File
	var skp *hashutil.SkewPlan
	ensure := func(up *sim.Proc) error { return e.ensureRBuckets(up, plan, &fRB, &skp) }
	if err := e.runUnit(p, "hash-R", ensure); err != nil {
		return err
	}
	e.markStepI(p)

	d := e.res.DiskBlocks - totalLen(fRB)
	scanBuf := scanBufFor(plan, e.res.MemoryBlocks)
	maxLoad := e.res.MemoryBlocks - scanBuf
	sLay := probeLayout(plan, skp, e.res.MemoryBlocks)

	dbuf := e.newDoubleBuffer("s-buckets", d)
	// Chunks leave one block of slack per partition for partial-block spill.
	chunkCap := dbuf.ChunkCapacity() - int64(sLay.parts)
	if chunkCap < int64(sLay.parts) {
		return fmt.Errorf("%w: %d blocks left to buffer S over %d buckets", ErrNeedDisk, d, sLay.parts)
	}

	q := sim.NewQueue[ghChunk](e.k, "gh-chunks", 1)
	hasher := spawnChunkHasher(e, q, sLay, chunkCap, dbuf)

	// Joiner: output is staged per chunk, so a mid-chunk fault leaves no
	// partial deliveries behind; the sequential tail redoes the chunk.
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
		sp := e.span(p, "join-chunk", obs.AInt("off", c.off))
		err := e.staged(p, func() error {
			for b := 0; b < sLay.parts; b++ {
				if err := joinBucketPair(e, p, diskBucket{fRB[b]}, diskBucket{c.files[b]}, maxLoad, scanBuf); err != nil {
					for ; b < sLay.parts; b++ {
						dbuf.Release(p, c.iter, c.files[b].Len())
						c.files[b].Free()
					}
					return err
				}
				dbuf.Release(p, c.iter, c.files[b].Len())
				c.files[b].Free()
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
		// Degrade to the sequential Step II for the rest of S: same
		// chunks and buckets, no pipeline, checkpoints per bucket.
		err := ghStepIISeq(e, p, plan, sLay, nextOff, ensure,
			func(b int) bucketSource { return diskBucket{fRB[b]} },
			func() int64 { return totalLen(fRB) })
		if err != nil {
			return err
		}
	}
	freeAll(fRB)
	return nil
}

// ghChunk is one hashed chunk of S handed from the hasher to the
// joiner; a chunk with err set poisons the pipeline.
type ghChunk struct {
	iter  int64
	off   int64
	n     int64
	files []device.File
	err   error
}

// spawnChunkHasher starts the producer side of the concurrent Grace
// Hash Step II: partition successive chunks of S into double-buffered
// disk bucket files. On a fault it returns the chunk's buffer space,
// poisons the queue and stops; the joiner's sequential tail takes over.
func spawnChunkHasher(e *env, q *sim.Queue[ghChunk], sLay layout,
	chunkCap int64, dbuf buffer.DoubleBuffer) *sim.Proc {

	s := e.spec.S.Region
	return e.k.Spawn("s-hasher", func(hp *sim.Proc) {
		iter := int64(0)
		for off := int64(0); off < s.N && !e.abort; off += chunkCap {
			n := min64(chunkCap, s.N-off)
			it := iter // capture for the reserve closure
			var acq int64
			sp := e.span(hp, "stage-S", obs.AInt("off", off))
			files, err := partitionTapeToDisk(e, hp, e.driveS, s.Sub(off, n),
				e.spec.S.TuplesPerBlock, e.spec.S.Tag, sLay, "sb", e.filterS(), nil,
				func(fp *sim.Proc, blks int64) {
					dbuf.Acquire(fp, it, blks)
					acq += blks
				})
			sp.Close(hp)
			if err != nil {
				dbuf.Release(hp, it, acq)
				q.Send(hp, ghChunk{iter: it, off: off, err: err})
				break
			}
			q.Send(hp, ghChunk{iter: it, off: off, n: n, files: files})
			iter++
		}
		q.Close(hp)
	})
}

// drainChunk disposes of a chunk the joiner will not process, keeping
// buffer and disk accounting balanced while the pipeline winds down.
func drainChunk(e *env, p *sim.Proc, dbuf buffer.DoubleBuffer, c ghChunk, pipeErr *error) {
	if c.err != nil && *pipeErr == nil {
		*pipeErr = c.err
	}
	for _, f := range c.files {
		if f != nil {
			dbuf.Release(p, c.iter, f.Len())
			f.Free()
		}
	}
}
