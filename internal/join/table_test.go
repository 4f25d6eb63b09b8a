package join

import (
	"math/rand"
	"testing"

	"repro/internal/block"
	"repro/internal/sim"
)

// pairLog records emitted pairs in order.
type pairLog struct{ pairs [][2]uint64 }

func (l *pairLog) Emit(_ *sim.Proc, r, s block.Tuple) {
	l.pairs = append(l.pairs, [2]uint64{r.Key<<8 | uint64(r.Payload[0]), s.Key<<8 | uint64(s.Payload[0])})
}
func (l *pairLog) Count() int64 { return int64(len(l.pairs)) }

// tableRun builds blocks of n tuples with keys drawn from keySpace;
// each payload's first byte numbers the tuple, so order is visible.
func tableRun(n, perBlock int, keySpace uint64, seed int64) ([]block.Block, []block.Tuple) {
	rng := rand.New(rand.NewSource(seed))
	bld := block.NewBuilder(1)
	var blks []block.Block
	var tuples []block.Tuple
	for i := 0; i < n; i++ {
		t := block.Tuple{Key: rng.Uint64() % keySpace, Payload: []byte{byte(i), 0, 0, 0}}
		tuples = append(tuples, t)
		bld.Append(t)
		if bld.Len() == perBlock {
			blks = append(blks, bld.Finish())
		}
	}
	if bld.Len() > 0 {
		blks = append(blks, bld.Finish())
	}
	return blks, tuples
}

// TestHashTableMatchesPerKeyInsertionOrder checks the flat table
// against a map of slices: every probe emits the same pairs in the
// same order, across growth, for few and for many distinct keys.
func TestHashTableMatchesPerKeyInsertionOrder(t *testing.T) {
	for round, keySpace := range []uint64{7, 300, 1 << 40} {
		blks, tuples := tableRun(2000, 5, keySpace, int64(round))
		h := newHashTable()
		if err := h.addBlocks(blks); err != nil {
			t.Fatal(err)
		}
		if h.len() != len(tuples) {
			t.Fatalf("len = %d, want %d", h.len(), len(tuples))
		}
		ref := map[uint64][]block.Tuple{}
		for _, tp := range tuples {
			ref[tp.Key] = append(ref[tp.Key], tp)
		}
		probes, _ := tableRun(500, 5, keySpace, int64(round)+100)
		var got, want pairLog
		e := &env{sink: &got}
		if err := forEachTuple(probes, func(s block.Tuple) {
			h.probeWithS(e, nil, s)
			for _, r := range ref[s.Key] {
				want.Emit(nil, r, s)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if len(got.pairs) != len(want.pairs) {
			t.Fatalf("key space %d: %d pairs, want %d", keySpace, len(got.pairs), len(want.pairs))
		}
		for i := range want.pairs {
			if got.pairs[i] != want.pairs[i] {
				t.Fatalf("key space %d: pair %d = %v, want %v", keySpace, i, got.pairs[i], want.pairs[i])
			}
		}
	}
}

func BenchmarkHashTableBuildProbe(b *testing.B) {
	build, _ := tableRun(4096, 4, 1_000_000, 1)
	probe, _ := tableRun(4096, 4, 1_000_000, 2)
	e := &env{sink: &CountSink{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := newHashTable()
		if err := h.addBlocks(build); err != nil {
			b.Fatal(err)
		}
		if err := forEachTuple(probe, func(s block.Tuple) { h.probeWithS(e, nil, s) }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionerAdd(b *testing.B) {
	_, tuples := tableRun(4096, 4, 1_000_000, 3)
	pt := newPartitioner(16, 4, 4, 1, func(*sim.Proc, int, []block.Block) error { return nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range tuples {
			if err := pt.add(nil, t); err != nil {
				b.Fatal(err)
			}
		}
	}
}
