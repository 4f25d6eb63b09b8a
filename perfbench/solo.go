package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	tapejoin "repro"
)

// Sizes of the solo workloads, in the paper's megabytes.
const (
	soloRMB, soloSMB = 32, 128
	soloMemMB        = 6
	soloDiskMB       = 200
	soloTuples       = 4
	soloKeySpace     = 1_000_000
)

// soloMethods are the nine methods a solo workload cycles through.
var soloMethods = []tapejoin.Method{
	tapejoin.DTNB, tapejoin.CDTNBMB, tapejoin.CDTNBDB, tapejoin.DTGH, tapejoin.CDTGH,
	tapejoin.CTTGH, tapejoin.TTGH, tapejoin.TTSM, tapejoin.SYMH,
}

// solo runs one-shot JoinWith calls, one at a time, each on a fresh
// uniform-key R/S pair, cycling through all nine methods.
type solo struct {
	seed    int64
	backend string // "sim" or "file"
	dir     string // scratch root of the file backend
	traced  bool

	// roundOps, when positive, ends a round after that many calls; the
	// next round starts from a fresh set-up and continues the sequence.
	roundOps int

	sys  *tapejoin.System
	next int    // index of the round's first call
	pool []pair // pairs of the round's first method cycle, generated in set-up
	gen  time.Duration
}

type pair struct {
	r, s   *tapejoin.Relation
	rt, st *tapejoin.Tape
}

// fileRoundOps is the number of calls one file-backend system serves
// per round: the backend's I/O engine keeps every transfer interval it
// ever timed, so its memory and its per-call wall-stats merge grow with
// the calls a system has served, and a fixed count keeps rounds alike.
const fileRoundOps = 4 * 9

func newSolo(seed int64, backend, dir string, traced bool) *solo {
	w := &solo{seed: seed, backend: backend, dir: dir, traced: traced}
	if backend == "file" {
		w.roundOps = fileRoundOps
	}
	return w
}

func (w *solo) config() tapejoin.Config {
	cfg := tapejoin.Config{MemoryMB: soloMemMB, DiskMB: soloDiskMB, Observe: w.traced}
	if w.backend == "file" {
		cfg.Backend = "file"
		cfg.BackendDir = w.dir
		cfg.FileSync = "none"
	}
	return cfg
}

func (w *solo) setup() (time.Duration, error) {
	w.close()
	if w.backend == "file" {
		if err := os.MkdirAll(w.dir, 0o755); err != nil {
			return 0, err
		}
	}
	sys, err := tapejoin.NewSystem(w.config())
	if err != nil {
		return 0, err
	}
	w.sys = sys
	w.gen = 0
	for i := w.next; i < w.next+len(soloMethods); i++ {
		p, err := w.generate(sys, i)
		if err != nil {
			return 0, err
		}
		if err := sys.CheckFeasible(soloMethod(i), p.r, p.s); err != nil {
			return 0, fmt.Errorf("%s infeasible: %w", soloMethod(i), err)
		}
		w.pool = append(w.pool, p)
	}
	return w.gen, nil
}

// generate writes op i's R/S pair onto two fresh cartridges sized for
// TT-SM's sort workspace, the largest tape scratch of the nine methods:
// |R|+|S| and 64 MB of slack beyond the relation, since TT-SM writes
// past the |R|+|S| plus few-block slack its feasibility check asks for.
func (w *solo) generate(sys *tapejoin.System, i int) (pair, error) {
	t0 := time.Now()
	defer func() { w.gen += time.Since(t0) }()
	var p pair
	for side, mb := range []int64{soloRMB, soloSMB} {
		name := fmt.Sprintf("%c%d", "RS"[side], i)
		t, err := sys.NewTape("tape-"+name, mb+soloRMB+soloSMB+64)
		if err != nil {
			return p, err
		}
		rel, err := sys.CreateRelation(t, tapejoin.RelationConfig{
			Name: name, SizeMB: mb, TuplesPerBlock: soloTuples, KeySpace: soloKeySpace,
			Seed: splitmix(w.seed, int64(i), int64(side)),
		})
		if err != nil {
			return p, err
		}
		if side == 0 {
			p.r, p.rt = rel, t
		} else {
			p.s, p.st = rel, t
		}
	}
	return p, nil
}

func soloMethod(i int) tapejoin.Method { return soloMethods[i%len(soloMethods)] }

func (w *solo) run(deadline time.Time, rec *recorder) error {
	first := w.next
	for i := first; time.Now().Before(deadline) && (w.roundOps == 0 || i < first+w.roundOps); i++ {
		w.next = i + 1
		if rec.traced && first == 0 && i%len(soloMethods) == 0 {
			rec.checkpoint(i, 0, 0)
		}
		id := fmt.Sprintf("q%d", i)
		g0 := time.Now()
		var p pair
		if j := i - first; j < len(w.pool) {
			p, w.pool[j] = w.pool[j], pair{}
		} else {
			var err error
			if p, err = w.generate(w.sys, i); err != nil {
				return err
			}
		}
		g1 := time.Now()
		method := soloMethod(i)
		freeBefore := p.rt.FreeMB() + p.st.FreeMB()
		res, err := w.sys.JoinWith(method, p.r, p.s, tapejoin.JoinOptions{})
		t1 := time.Now()
		rec.op(ms(t1.Sub(g1)))
		if rec.traced {
			opSpan := rec.spans.add(id, "solo", "op", 0, g0, t1)
			rec.spans.add(id, "solo", "generate", opSpan, g0, g1)
			rec.spans.add(id, "solo", "JoinWith", opSpan, g1, t1)
		}
		if err != nil {
			rec.fail(id, fmt.Sprintf("%s: %v", method, err))
			continue
		}
		st := res.Stats
		wrongly := ""
		if want := tapejoin.ExpectedMatches(p.r, p.s); st.Matches != want {
			wrongly = fmt.Sprintf("%s: %d matches, want %d", method, st.Matches, want)
		}
		rec.query(id, output{
			matches: st.Matches, hash: st.OutputHash, virtual: st.Response.Seconds(),
			ref: fmt.Sprint(i), method: string(method),
		}, wrongly)
		rec.addVirtual(st.Response.Seconds())
		rec.mix("method=" + string(method))
		if rec.traced {
			rec.add("tape.scratch_left_mb", float64(freeBefore-p.rt.FreeMB()-p.st.FreeMB()))
			w.layers(rec, res)
		}
	}
	if rec.traced && first == 0 && w.next == w.roundOps {
		rec.checkpoint(w.next, 0, 0)
	}
	return nil
}

// layers adds one join's per-layer counters.
func (w *solo) layers(rec *recorder, res *tapejoin.Result) {
	st := res.Stats
	resp := st.Response.Seconds()
	rec.add("tape.busy_vs", (st.TapeRUtil+st.TapeSUtil)*resp)
	rec.add("input.blocks", float64((soloRMB+soloSMB)*tapejoin.BlocksPerMB))
	rec.max("disk.peak_mb", st.DiskPeakMB)
	rec.add("disk.busy_vs", st.DiskUtil*resp)
	rec.add("join.pairs_per_query", float64(st.Matches))
	rec.add("join.iterations", float64(st.Iterations))
	rec.add("join.r_scans", float64(st.RScans))
	rec.add("join.first_tuple_vs", st.FirstTuple.Seconds())
	rec.add("hashutil.heavy_hitters", float64(st.HeavyHitters))
	rec.add("hashutil.skew_partitions", float64(st.SkewPartitions))
	rec.add("device.overlap_frac", st.WallOverlap)
	if res.Report != nil {
		addReport(rec, res.Report, false)
	}
}

func (w *solo) verify(rec *recorder) error {
	ref, err := tapejoin.NewSystem(tapejoin.Config{MemoryMB: soloMemMB, DiskMB: soloDiskMB})
	if err != nil {
		return err
	}
	defer ref.Close()
	return verifyOutputs(rec, func(key string, method tapejoin.Method) (uint64, error) {
		var i int
		if _, err := fmt.Sscan(key, &i); err != nil {
			return 0, err
		}
		p, err := w.generate(ref, i)
		if err != nil {
			return 0, err
		}
		res, err := ref.Join(method, p.r, p.s)
		if err != nil {
			return 0, err
		}
		return res.Stats.OutputHash, nil
	})
}

func (w *solo) close() {
	if w.sys != nil {
		w.sys.Close()
		w.sys = nil
	}
	w.pool = nil
	if w.backend == "file" {
		os.RemoveAll(w.dir)
	}
}

func fileDir(root, name string) string { return filepath.Join(root, ".bench_build", "scratch", name) }
