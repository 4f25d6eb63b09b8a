package join

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/sim"
)

// layout describes how a relation is routed into partitions on disk:
// the partition count, per-partition write buffer, input buffer and
// the routing function. The zero-skew layout of a uniform Plan routes
// by the primary hash and is byte-for-byte the paper's behavior.
type layout struct {
	parts    int
	writeBuf int64
	inBuf    int64
	// sp, when non-nil, routes keys through the skew plan's refined
	// partition map instead of the uniform hash.
	sp *hashutil.SkewPlan
}

func layoutOf(plan hashutil.Plan) layout {
	return layout{parts: plan.B, writeBuf: plan.WriteBuf, inBuf: plan.InBuf}
}

// probeLayout sizes the probe-side (S) partition layout for a plan and
// its optional skew refinement: every final partition needs a write
// buffer next to the input buffer, so more partitions mean narrower
// buffers, never more memory.
func probeLayout(plan hashutil.Plan, sp *hashutil.SkewPlan, m int64) layout {
	if sp.Trivial() {
		return layoutOf(plan)
	}
	lay := layout{parts: sp.NParts, sp: sp}
	lay.inBuf = m / 10
	if lay.inBuf < 1 {
		lay.inBuf = 1
	}
	lay.writeBuf = (m - lay.inBuf) / int64(lay.parts)
	if lay.writeBuf < 1 {
		lay.writeBuf = 1
		if lay.inBuf = m - int64(lay.parts); lay.inBuf < 1 {
			lay.inBuf = 1
		}
	}
	return lay
}

// memory returns the blocks the partition phase holds under this
// layout: one write buffer per partition plus the input buffer.
func (l layout) memory() int64 { return int64(l.parts)*l.writeBuf + l.inBuf }

// route maps a key to its final partition.
func (l layout) route(key uint64) int {
	if l.sp != nil {
		return l.sp.Partition(key)
	}
	return hashutil.Bucket(key, l.parts)
}

// skewTarget is the single-load budget a repaired partition must meet:
// whatever memory remains next to the join phase's streaming buffer.
func skewTarget(plan hashutil.Plan, m int64) int64 {
	return m - scanBufFor(plan, m)
}

// newSketch returns a frequency sketch when skew-aware partitioning is
// on, nil otherwise.
func (e *env) newSketch() *hashutil.FreqSketch {
	if !e.res.SkewAware {
		return nil
	}
	return hashutil.NewFreqSketch(e.res.SkewSketchK)
}

// fileLens returns the length in blocks of each file.
func fileLens(files []device.File) []int64 {
	out := make([]int64, len(files))
	for i, f := range files {
		out[i] = f.Len()
	}
	return out
}

// splitBucketFile redistributes one provisional bucket file into the
// final partitions the skew plan assigns to primary bucket b, reading
// the file back in IOChunk batches and writing one new file per
// partition (named prefix<part>). The input file is freed on success.
// Memory held is one block per target partition plus the read chunk —
// bounded by maxParts <= M-1 at plan time.
func (e *env) splitBucketFile(p *sim.Proc, f device.File, sp *hashutil.SkewPlan, b int,
	tuplesPerBlock int, tag byte, prefix string) (map[int]device.File, error) {

	parts := sp.PartsOf(b)
	isPart := make(map[int]bool, len(parts))
	out := make(map[int]device.File, len(parts))
	ok := false
	defer func() {
		if !ok {
			for _, nf := range out {
				nf.Free()
			}
		}
	}()
	for _, part := range parts {
		nf, err := e.disks.Create(fmt.Sprintf("%s%d", prefix, part), nil)
		if err != nil {
			return nil, err
		}
		out[part] = nf
		isPart[part] = true
	}

	chunk := min64(e.res.IOChunk, e.res.MemoryBlocks-int64(len(parts)))
	if chunk < 1 {
		chunk = 1
	}
	mem := int64(len(parts)) + chunk
	e.mem.acquire(mem)
	defer e.mem.release(mem)

	pt := newPartitioner(sp.NParts, 1, tuplesPerBlock, tag,
		func(fp *sim.Proc, part int, blks []block.Block) error {
			return out[part].Append(fp, blks)
		})
	pt.route = sp.Partition
	pt.only = func(part int) bool { return isPart[part] }
	for off := int64(0); off < f.Len(); off += chunk {
		n := min64(chunk, f.Len()-off)
		blks, err := e.diskRead(p, f, off, n)
		if err != nil {
			return nil, err
		}
		if err := pt.addBlocks(p, blks, nil); err != nil {
			return nil, err
		}
	}
	if err := pt.finish(p); err != nil {
		return nil, err
	}
	ok = true
	f.Free()
	return out, nil
}

// partFilter returns an appendFileToTape transform that keeps only the
// tuples routed to part, repacking survivors at the relation's density.
// The builder carries across batches, so only the partition's final
// block is partial — the spooled region is as dense as a directly
// partitioned one.
func partFilter(sp *hashutil.SkewPlan, part, tuplesPerBlock int, tag byte) func(blks []block.Block, eof bool) ([]block.Block, error) {
	bld := block.NewBuilder(tag)
	return func(blks []block.Block, eof bool) ([]block.Block, error) {
		var out []block.Block
		err := forEachTuple(blks, func(t block.Tuple) {
			if sp.Partition(t.Key) != part {
				return
			}
			bld.Append(t)
			if bld.Len() >= tuplesPerBlock {
				out = append(out, bld.Finish())
			}
		})
		if err != nil {
			return nil, err
		}
		if eof && bld.Len() > 0 {
			out = append(out, bld.Finish())
		}
		return out, nil
	}
}

// repairRSkew inspects the uniform R bucket files against the
// single-load budget and, when any overflows, builds a SkewPlan from
// the sketch and rewrites the overflowing buckets into their refined
// partitions on disk. Returns the final partition files (indexed by
// partition) and the plan; a trivial refinement returns the input
// files and a nil plan, leaving the uniform path untouched. The
// rewrite is deterministic, so a recovery replay lands on the same
// layout.
func (e *env) repairRSkew(p *sim.Proc, plan hashutil.Plan, files []device.File,
	sk *hashutil.FreqSketch, tuplesPerBlock int, tag byte, prefix string) ([]device.File, *hashutil.SkewPlan, error) {

	target := skewTarget(plan, e.res.MemoryBlocks)
	sp := hashutil.BuildSkewPlan(plan, fileLens(files), sk, tuplesPerBlock,
		target, int(e.res.MemoryBlocks-1))
	if sp.Trivial() {
		return files, nil, nil
	}
	e.stats.HeavyHitters = len(sp.Heavy)
	e.stats.SkewPartitions = sp.NParts

	span := e.span(p, "skew-repair",
		obs.AInt("heavy", int64(len(sp.Heavy))), obs.AInt("parts", int64(sp.NParts)))
	defer span.Close(p)

	// repairRSkew owns files from here: on error everything still
	// allocated — unsplit originals and finished splits alike — is
	// freed, and the caller must not free the input slice again.
	out := make([]device.File, sp.NParts)
	copy(out, files)
	for b := 0; b < plan.B; b++ {
		if len(sp.PartsOf(b)) == 1 {
			continue
		}
		split, err := e.splitBucketFile(p, files[b], sp, b, tuplesPerBlock, tag, prefix)
		if err != nil {
			freeAll(out)
			return nil, nil, err
		}
		// splitBucketFile freed files[b] and produced a replacement for
		// every partition of b, index b included.
		for part, nf := range split {
			out[part] = nf
		}
	}
	return out, sp, nil
}
