package join

import (
	"fmt"
	"math/bits"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/hashutil"
	"repro/internal/sim"
)

// hashTable is the in-memory build side of a join phase. CPU cost is
// outside the paper's cost model, so building and probing consume no
// virtual time.
//
// The layout is flat, after DPG (PAPERS.md): every inserted tuple lands
// in one arena in insertion order, and an open-addressed slot array
// maps each distinct key to the head and tail of an int32 chain through
// the arena. Chains append at the tail, so a probe visits a key's
// tuples in insertion order — the order the emitted pairs depend on.
type hashTable struct {
	tuples []block.Tuple
	next   []int32 // next[i]: arena index of the next tuple with tuples[i]'s key, or -1
	slots  []slot  // power-of-two length; at most half full
	keys   int     // occupied slots
	shift  uint    // 64 - log2(len(slots))
}

// slot maps one key to its chain. head is the arena index plus one, so
// the zero slot is empty.
type slot struct {
	key        uint64
	head, tail int32
}

// minSlots is a fresh table's slot count.
const minSlots = 64

func newHashTable() *hashTable {
	h := &hashTable{}
	h.resize(minSlots)
	return h
}

// resize rehashes the slots into n (a power of two) slots.
func (h *hashTable) resize(n int) {
	old := h.slots
	h.slots = make([]slot, n)
	h.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.head != 0 {
			*h.find(s.key) = s
		}
	}
}

// find returns key's slot, or the empty slot where it belongs.
func (h *hashTable) find(key uint64) *slot {
	mask := len(h.slots) - 1
	for i := int((key * 0x9e3779b97f4a7c15) >> h.shift); ; i = (i + 1) & mask {
		if s := &h.slots[i]; s.head == 0 || s.key == key {
			return s
		}
	}
}

// insert adds t at the end of its key's chain.
func (h *hashTable) insert(t block.Tuple) {
	i := int32(len(h.tuples))
	h.tuples = append(h.tuples, t)
	h.next = append(h.next, -1)
	s := h.find(t.Key)
	if s.head != 0 {
		h.next[s.tail-1] = i
		s.tail = i + 1
		return
	}
	*s = slot{key: t.Key, head: i + 1, tail: i + 1}
	if h.keys++; 2*h.keys > len(h.slots) {
		h.resize(2 * len(h.slots))
	}
}

// first returns the arena index of key's first tuple, or -1; next[i]
// continues the chain.
func (h *hashTable) first(key uint64) int32 {
	return h.find(key).head - 1
}

// addBlocks inserts every tuple of blks.
func (h *hashTable) addBlocks(blks []block.Block) error {
	return h.addBlocksFiltered(blks, nil)
}

// addBlocksFiltered inserts tuples surviving keep (nil keeps all). A
// malformed block surfaces as the iterator's typed error, never a
// panic.
func (h *hashTable) addBlocksFiltered(blks []block.Block, keep keepFn) error {
	it := block.Tuples(blks)
	for it.Next() {
		if t := it.Tuple(); keep == nil || keep(t) {
			h.insert(t)
		}
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("join: build side: %w", err)
	}
	return nil
}

// probeWithR probes with an R tuple against a table built on S tuples,
// emitting (r, s) pairs through the env's emission funnel.
func (h *hashTable) probeWithR(e *env, p *sim.Proc, r block.Tuple) {
	for i := h.first(r.Key); i >= 0; i = h.next[i] {
		e.emit(p, r, h.tuples[i])
	}
}

// probeWithS probes with an S tuple against a table built on R tuples,
// emitting (r, s) pairs through the env's emission funnel.
func (h *hashTable) probeWithS(e *env, p *sim.Proc, s block.Tuple) {
	for i := h.first(s.Key); i >= 0; i = h.next[i] {
		e.emit(p, h.tuples[i], s)
	}
}

func (h *hashTable) len() int { return len(h.tuples) }

// forEachTuple applies fn to every tuple of blks. Blocks reach the
// join verified by the device that delivered them, so the walk checks
// structure only; a malformed block stops it with the iterator's typed
// error — device-read corruption must never panic a join.
func forEachTuple(blks []block.Block, fn func(block.Tuple)) error {
	it := block.Tuples(blks)
	for it.Next() {
		fn(it.Tuple())
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("join: decode: %w", err)
	}
	return nil
}

// keepFn reports whether a tuple survives a pushed-down selection.
type keepFn func(block.Tuple) bool

// filterRepack drops tuples failing keep and repacks the survivors at
// the original density, returning the smaller block run and the number
// of tuples dropped. A nil keep returns the input unchanged.
func filterRepack(blks []block.Block, keep keepFn, perBlk int, tag byte) ([]block.Block, int64, error) {
	if keep == nil {
		return blks, 0, nil
	}
	bld := block.NewBuilder(tag)
	out := make([]block.Block, 0, len(blks))
	var dropped int64
	err := forEachTuple(blks, func(t block.Tuple) {
		if !keep(t) {
			dropped++
			return
		}
		bld.Append(t)
		if bld.Len() >= perBlk {
			out = append(out, bld.Finish())
		}
	})
	if err != nil {
		return nil, 0, err
	}
	if bld.Len() > 0 {
		out = append(out, bld.Finish())
	}
	return out, dropped, nil
}

// filterFor returns the pushed-down filter for a relation tag, with
// drop accounting wired to the right stat.
func (e *env) filterR() keepFn {
	if e.spec.FilterR == nil {
		return nil
	}
	return func(t block.Tuple) bool {
		if e.spec.FilterR(t) {
			return true
		}
		e.stats.RFiltered++
		return false
	}
}

func (e *env) filterS() keepFn {
	if e.spec.FilterS == nil {
		return nil
	}
	return func(t block.Tuple) bool {
		if e.spec.FilterS(t) {
			return true
		}
		e.stats.SFiltered++
		return false
	}
}

// readTape streams region from drive in chunk-block requests, calling
// fn with each batch. The stream is strictly sequential, keeping the
// drive streaming when fn is fast. Reads go through the retrying
// device-read path, so transient faults are absorbed here.
func (e *env) readTape(p *sim.Proc, drive device.Drive, region device.Region, chunk int64, fn func(off int64, blks []block.Block) error) error {
	if chunk < 1 {
		return fmt.Errorf("join: readTape chunk %d", chunk)
	}
	for off := int64(0); off < region.N; off += chunk {
		n := min64(chunk, region.N-off)
		blks, err := e.tapeRead(p, drive, region.Start+device.Addr(off), n)
		if err != nil {
			return err
		}
		if err := fn(off, blks); err != nil {
			return err
		}
	}
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// flushFn receives a run of freshly packed blocks for one bucket. blks
// is valid only for the call: the partitioner reuses its storage.
type flushFn func(p *sim.Proc, bucket int, blks []block.Block) error

// partitioner hash-partitions a tuple stream into B buckets, packing
// tuples into blocks at the relation's density and flushing each
// bucket's write buffer at writeBuf-block granularity. Flush size is
// the knob that makes bucket writes degrade into random I/O when
// memory is scarce (Section 9).
type partitioner struct {
	b              int
	writeBuf       int64
	tuplesPerBlock int
	tag            byte
	builders       []*block.Builder
	pending        [][]block.Block
	flush          flushFn
	// only, when non-nil, keeps just the buckets it accepts and
	// discards other tuples (the multi-scan assembly of CTT-GH and
	// TT-GH Step I).
	only func(bucket int) bool
	// route maps a key to its bucket; defaults to the uniform hash
	// over b buckets. Skew-aware layouts install a SkewPlan router.
	route func(key uint64) int
	// sketch, when non-nil, observes every key before the only-filter,
	// so one full scan completes the frequency sketch even when the
	// partitioner keeps only a window of buckets.
	sketch *hashutil.FreqSketch
	// produced counts blocks flushed per bucket.
	produced []int64
}

func newPartitioner(b int, writeBuf int64, tuplesPerBlock int, tag byte, flush flushFn) *partitioner {
	pt := &partitioner{
		b: b, writeBuf: writeBuf, tuplesPerBlock: tuplesPerBlock, tag: tag,
		builders: make([]*block.Builder, b),
		pending:  make([][]block.Block, b),
		produced: make([]int64, b),
		flush:    flush,
	}
	for i := range pt.builders {
		pt.builders[i] = block.NewBuilder(tag)
	}
	pt.route = func(key uint64) int { return hashutil.Bucket(key, b) }
	return pt
}

// add routes one tuple.
func (pt *partitioner) add(p *sim.Proc, t block.Tuple) error {
	if pt.sketch != nil {
		pt.sketch.Add(t.Key)
	}
	bkt := pt.route(t.Key)
	if pt.only != nil && !pt.only(bkt) {
		return nil
	}
	bld := pt.builders[bkt]
	bld.Append(t)
	if bld.Len() < pt.tuplesPerBlock {
		return nil
	}
	pt.pending[bkt] = append(pt.pending[bkt], bld.Finish())
	if int64(len(pt.pending[bkt])) >= pt.writeBuf {
		return pt.drain(p, bkt)
	}
	return nil
}

// addBlocks routes every tuple of blks that survives keep (nil keeps
// all), stopping at the first flush error.
func (pt *partitioner) addBlocks(p *sim.Proc, blks []block.Block, keep keepFn) error {
	it := block.Tuples(blks)
	for it.Next() {
		if t := it.Tuple(); keep == nil || keep(t) {
			if err := pt.add(p, t); err != nil {
				return err
			}
		}
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("join: decode: %w", err)
	}
	return nil
}

// drain flushes one bucket's pending blocks.
func (pt *partitioner) drain(p *sim.Proc, bkt int) error {
	blks := pt.pending[bkt]
	if len(blks) == 0 {
		return nil
	}
	pt.pending[bkt] = nil
	pt.produced[bkt] += int64(len(blks))
	err := pt.flush(p, bkt, blks)
	clear(blks) // the flushed blocks belong to the file now
	pt.pending[bkt] = blks[:0]
	return err
}

// finish packs partially filled blocks and flushes every bucket.
func (pt *partitioner) finish(p *sim.Proc) error {
	for bkt, bld := range pt.builders {
		if bld.Len() > 0 {
			pt.pending[bkt] = append(pt.pending[bkt], bld.Finish())
		}
		if err := pt.drain(p, bkt); err != nil {
			return err
		}
	}
	return nil
}
