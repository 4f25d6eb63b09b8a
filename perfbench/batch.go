package main

import (
	"fmt"
	"math/rand"
	"time"

	tapejoin "repro"
)

// Sizes of the batch-skew workload, in the paper's megabytes.
const (
	batchSMB, batchRMB = 32, 8
	batchNS, batchNR   = 3, 4
	batchMemMB         = 2.5
	batchDiskMB        = 160
	batchCacheMB       = 16
	batchTapeMB        = 1024 // room for every tape-scratch method of a batch
	batchTuples        = 8
	batchKeySpace      = 16384
	batchZipf          = 0.99
	batchQueries       = 12
)

// batchMethods is the pool each batch query draws its method from; ""
// lets the cost advisor pick.
var batchMethods = []tapejoin.Method{"", tapejoin.DTGH, tapejoin.CDTGH, tapejoin.CTTGH, tapejoin.TTGH, tapejoin.SYMH}

// batch runs closed batches through RunBatch under the shared-scan
// policy, each on a fresh system holding Zipf-skewed relations.
type batch struct {
	seed   int64
	traced bool

	next *batchSet // the first batch's system, built in set-up
	gen  time.Duration
}

// batchSet is one batch's system and relations.
type batchSet struct {
	sys    *tapejoin.System
	rs, ss []*tapejoin.Relation
	tapes  []*tapejoin.Tape
}

func newBatch(seed int64, traced bool) *batch { return &batch{seed: seed, traced: traced} }

func (w *batch) setup() (time.Duration, error) {
	w.close()
	w.gen = 0
	set, err := w.build(0, w.config())
	w.next = set
	return w.gen, err
}

func (w *batch) config() tapejoin.Config {
	return tapejoin.Config{MemoryMB: batchMemMB, DiskMB: batchDiskMB, SkewAware: true, Observe: w.traced}
}

// referenceConfig is the system reference joins run on: R fits in
// memory, so they cost one pass instead of a skewed multi-pass join.
func referenceConfig() tapejoin.Config {
	return tapejoin.Config{MemoryMB: 2 * batchRMB, DiskMB: batchDiskMB}
}

// build generates batch b's relations, each on its own cartridge, on a
// fresh system.
func (w *batch) build(b int, cfg tapejoin.Config) (*batchSet, error) {
	t0 := time.Now()
	defer func() { w.gen += time.Since(t0) }()
	sys, err := tapejoin.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	set := &batchSet{sys: sys}
	for i := 0; i < batchNS+batchNR; i++ {
		name, mb := fmt.Sprintf("S%d", i), int64(batchSMB)
		if i >= batchNS {
			name, mb = fmt.Sprintf("R%d", i-batchNS), batchRMB
		}
		t, err := sys.NewTape("tape-"+name, batchTapeMB)
		if err != nil {
			return nil, err
		}
		rel, err := sys.CreateRelation(t, tapejoin.RelationConfig{
			Name: name, SizeMB: mb, TuplesPerBlock: batchTuples, KeySpace: batchKeySpace,
			ZipfTheta: batchZipf, Seed: splitmix(w.seed, int64(b), int64(i)),
		})
		if err != nil {
			return nil, err
		}
		set.tapes = append(set.tapes, t)
		if i < batchNS {
			set.ss = append(set.ss, rel)
		} else {
			set.rs = append(set.rs, rel)
		}
	}
	return set, nil
}

// batchShape is how many of a batch's queries join each S relation.
// The shared-scan policy fuses up to four same-S queries into one pass,
// so the two groups of five each leave one query to run alone with its
// requested method, on skewed data, beside three shared passes.
var batchShape = []int{5, 5, 2}

// pick draws batch b's queries: query j joins rs[ri[j]] with ss[si[j]].
// The shape is fixed and each pool method is requested twice; the seed
// picks which S gets which group, the R relations, the method
// assignment and the submission order, so batches differ in data and
// order but not in size.
func (w *batch) pick(b int) (methods []tapejoin.Method, ri, si []int) {
	rng := rand.New(rand.NewSource(splitmix(w.seed, int64(b), 1<<20)))
	for j := 0; j < batchQueries; j++ {
		methods = append(methods, batchMethods[j%len(batchMethods)])
	}
	rng.Shuffle(len(methods), func(i, j int) { methods[i], methods[j] = methods[j], methods[i] })
	for s, n := range rng.Perm(batchNS) {
		rs := rng.Perm(batchNR)
		for k := 0; k < batchShape[n]; k++ {
			ri = append(ri, rs[k%batchNR])
			si = append(si, s)
		}
	}
	rng.Shuffle(len(ri), func(i, j int) { ri[i], ri[j], si[i], si[j] = ri[j], ri[i], si[j], si[i] })
	return methods, ri, si
}

func (s *batchSet) freeMB() int64 {
	var free int64
	for _, t := range s.tapes {
		free += t.FreeMB()
	}
	return free
}

func (w *batch) run(deadline time.Time, rec *recorder) error {
	done := 0
	for b := 0; time.Now().Before(deadline); b++ {
		if rec.traced && b%2 == 0 {
			rec.checkpoint(done, 0, 0)
		}
		id := fmt.Sprintf("b%d", b)
		g0 := time.Now()
		set := w.next
		w.next = nil
		if set == nil {
			var err error
			if set, err = w.build(b, w.config()); err != nil {
				return err
			}
		}
		methods, ri, si := w.pick(b)
		qs := make([]tapejoin.BatchQuery, batchQueries)
		for j := range qs {
			qs[j] = tapejoin.BatchQuery{ID: fmt.Sprintf("%s.q%d", id, j), Method: methods[j], R: set.rs[ri[j]], S: set.ss[si[j]]}
		}
		free0 := set.freeMB()
		g1 := time.Now()
		rep, err := set.sys.RunBatch(qs, tapejoin.BatchOptions{Policy: tapejoin.BatchSharedScan, CacheMB: batchCacheMB})
		t1 := time.Now()
		rec.op(ms(t1.Sub(g1)))
		done += batchQueries
		if rec.traced {
			opSpan := rec.spans.add(id, "batch", "op", 0, g0, t1)
			rec.spans.add(id, "batch", "generate", opSpan, g0, g1)
			rec.spans.add(id, "batch", "RunBatch", opSpan, g1, t1)
		}
		if err != nil {
			for _, q := range qs {
				rec.fail(q.ID, "batch: "+err.Error())
			}
			set.sys.Close()
			continue
		}
		rec.addVirtual(rep.Makespan.Seconds())
		for j, qr := range rep.Queries {
			if qr.Failed {
				rec.fail(qr.ID, qr.Reason)
				continue
			}
			wrongly := ""
			if want := tapejoin.ExpectedMatches(qs[j].R, qs[j].S); qr.Matches != want {
				wrongly = fmt.Sprintf("%s: %d matches, want %d", qr.Method, qr.Matches, want)
			}
			if qr.ID != qs[j].ID {
				wrongly = fmt.Sprintf("result for %s in slot %d", qr.ID, j)
			}
			rec.query(qr.ID, output{
				matches: qr.Matches, hash: qr.OutputHash, virtual: qr.End.Seconds(),
				ref: fmt.Sprintf("%d/%d/%d", b, ri[j], si[j]), method: string(qr.Method),
			}, wrongly)
			rec.mix("method=" + string(qr.Method))
			if qr.Shared {
				rec.mix("shared")
			}
			if qr.CacheHit {
				rec.mix("cache-hit")
			}
		}
		if rec.traced {
			w.layers(rec, set, rep, qs, free0)
		}
		set.sys.Close()
	}
	return nil
}

// layers adds one batch's per-layer counters.
func (w *batch) layers(rec *recorder, set *batchSet, rep *tapejoin.BatchReport, qs []tapejoin.BatchQuery, free0 int64) {
	rec.add("tape.scratch_left_mb", float64(free0-set.freeMB()))
	rec.max("disk.peak_mb", rep.DiskPeakMB)
	rec.add("workload.mounts", float64(rep.Mounts))
	rec.add("workload.shared_passes", float64(rep.SharedPasses))
	rec.add("workload.cache_hits", float64(rep.CacheHits))
	rec.add("workload.cache_misses", float64(rep.CacheMisses))
	rec.add("workload.cache_evictions", float64(rep.CacheEvictions))
	for j, qr := range rep.Queries {
		rec.add("input.blocks", float64(qs[j].R.Blocks()+qs[j].S.Blocks()))
		rec.add("workload.queue_wait_vs", qr.Wait.Seconds())
		if qr.Substituted {
			rec.add("workload.substituted_ratio", 1)
		}
		if !qr.Failed {
			rec.add("join.pairs_per_query", float64(qr.Matches))
		}
	}
	if rep.Report != nil {
		addReport(rec, rep.Report, true)
	}
}

func (w *batch) verify(rec *recorder) error {
	var cur *batchSet
	curB := -1
	defer func() {
		if cur != nil {
			cur.sys.Close()
		}
	}()
	return verifyOutputs(rec, func(ref string, method tapejoin.Method) (uint64, error) {
		var b, r, s int
		if _, err := fmt.Sscanf(ref, "%d/%d/%d", &b, &r, &s); err != nil {
			return 0, err
		}
		if b != curB {
			if cur != nil {
				cur.sys.Close()
			}
			var err error
			if cur, err = w.build(b, referenceConfig()); err != nil {
				return 0, err
			}
			curB = b
		}
		res, err := cur.sys.Join(method, cur.rs[r], cur.ss[s])
		if err != nil {
			return 0, err
		}
		return res.Stats.OutputHash, nil
	})
}

func (w *batch) close() {
	if w.next != nil {
		w.next.sys.Close()
		w.next = nil
	}
}
