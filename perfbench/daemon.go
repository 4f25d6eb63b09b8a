package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	tapejoin "repro"
	"repro/internal/service"
)

// Shape of the daemon-mixed workload: tapejoind's default catalog and
// engine settings, in the paper's megabytes.
const (
	daemonSMB, daemonRMB = 6, 1
	daemonNS, daemonNR   = 3, 4
	daemonMemMB          = 8
	daemonDiskMB         = 64
	daemonMountSeconds   = 30
	daemonTuples         = 4
	daemonKeySpace       = 2000
	daemonClients        = 2
	daemonTenants        = 4
	// daemonRound is the number of queries one daemon serves before the
	// next round starts a fresh one: the daemon's heap grows with every
	// query served, so a fixed budget keeps rounds alike.
	daemonRound = 3000
	// daemonCheckpointEvery is the query count between steady-state
	// checkpoints in a traced run's first round.
	daemonCheckpointEvery = 500
)

// daemonMethods is the pool each query draws its requested method
// from; "" lets the cost advisor pick.
var daemonMethods = []string{"", "", "DT-GH", "CDT-GH", "CTT-GH", "TT-GH", "SYM-H", "CDT-NB/MB"}

// daemon drives an in-process tapejoind over HTTP from a fixed number
// of closed-loop clients sharing one kept-alive HTTP client.
type daemon struct {
	seed   int64
	traced bool

	sys    *tapejoin.System
	svc    *tapejoin.Service
	cat    map[string]*tapejoin.Relation
	tapes  []*tapejoin.Tape
	client *http.Client

	expMu    sync.Mutex
	expected map[string]int64 // "R/S" → exact join cardinality

	issued int // queries issued by earlier rounds; the next round continues the sequence
}

// newDaemon returns the workload with the one HTTP client every round
// shares: at most one connection per client goroutine, kept alive.
func newDaemon(seed int64, traced bool) *daemon {
	return &daemon{seed: seed, traced: traced, client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: daemonClients, MaxIdleConnsPerHost: daemonClients,
	}}}
}

func (w *daemon) setup() (time.Duration, error) {
	w.close()
	sys, err := tapejoin.NewSystem(tapejoin.Config{MemoryMB: daemonMemMB, DiskMB: daemonDiskMB, Observe: w.traced})
	if err != nil {
		return 0, err
	}
	w.sys = sys
	t0 := time.Now()
	cat, tapes, err := daemonCatalog(sys, w.seed)
	gen := time.Since(t0)
	if err != nil {
		return 0, err
	}
	w.cat, w.tapes = cat, tapes
	w.expected = map[string]int64{}
	w.svc, err = sys.StartService(tapejoin.ServiceOptions{
		Policy: tapejoin.BatchMountAware, MountSeconds: daemonMountSeconds, Catalog: cat,
	})
	if err != nil {
		return 0, err
	}
	return gen, nil
}

// daemonCatalog generates the S relations one per cartridge and the R
// relations two per cartridge.
func daemonCatalog(sys *tapejoin.System, seed int64) (map[string]*tapejoin.Relation, []*tapejoin.Tape, error) {
	cat := map[string]*tapejoin.Relation{}
	var tapes []*tapejoin.Tape
	var t *tapejoin.Tape
	for i := 0; i < daemonNS+daemonNR; i++ {
		name, mb := fmt.Sprintf("S%d", i+1), int64(daemonSMB)
		var err error
		switch {
		case i < daemonNS:
			t, err = sys.NewTape("tape-"+name, daemonSMB+2)
		case (i-daemonNS)%2 == 0:
			t, err = sys.NewTape(fmt.Sprintf("tape-R%d", (i-daemonNS)/2+1), 2*daemonRMB+2)
		}
		if err != nil {
			return nil, nil, err
		}
		if i >= daemonNS {
			name, mb = fmt.Sprintf("R%d", i-daemonNS+1), daemonRMB
		}
		if len(tapes) == 0 || tapes[len(tapes)-1] != t {
			tapes = append(tapes, t)
		}
		rel, err := sys.CreateRelation(t, tapejoin.RelationConfig{
			Name: name, SizeMB: mb, TuplesPerBlock: daemonTuples, KeySpace: daemonKeySpace,
			Seed: splitmix(seed, int64(i)),
		})
		if err != nil {
			return nil, nil, err
		}
		cat[name] = rel
	}
	return cat, tapes, nil
}

// query returns the i-th query of the seeded mix. Every tenth query
// streams its pairs; about one in eight is a LIMIT-n query, which
// always streams so the first pair's arrival is observable, and leaves
// the method to the engine, which prefers SYM-H for early termination.
// (A LIMIT-n query that names a disk-staging method leaves its disk
// scratch allocated on the resident session; a few dozen of them fill
// D and every later query fails.)
func (w *daemon) query(i int) service.Request {
	x := uint64(splitmix(w.seed, int64(i), 1<<30))
	pick := func(n int) int {
		v := int(x % uint64(n))
		x /= uint64(n)
		return v
	}
	q := service.Request{
		ID:     fmt.Sprintf("q%d", i),
		Tenant: fmt.Sprintf("t%d", pick(daemonTenants)),
		Method: daemonMethods[pick(len(daemonMethods))],
		R:      fmt.Sprintf("R%d", pick(daemonNR)+1),
		S:      fmt.Sprintf("S%d", pick(daemonNS)+1),
		Stream: i%10 == 0,
	}
	if pick(8) == 0 {
		q.StopAfter = int64(1 + pick(4))
		q.Stream = true
		q.Method = ""
	}
	return q
}

func (w *daemon) expect(r, s string) int64 {
	w.expMu.Lock()
	defer w.expMu.Unlock()
	k := r + "/" + s
	v, ok := w.expected[k]
	if !ok {
		v = tapejoin.ExpectedMatches(w.cat[r], w.cat[s])
		w.expected[k] = v
	}
	return v
}

func (w *daemon) freeMB() int64 {
	var free int64
	for _, t := range w.tapes {
		free += t.FreeMB()
	}
	return free
}

// run serves one round: daemonRound queries, or fewer when the
// deadline comes first.
func (w *daemon) run(deadline time.Time, rec *recorder) error {
	v0 := w.svc.Stats().Engine.VirtualNow
	free0 := w.freeMB()
	first := w.issued
	end := first + daemonRound
	checkpoints := rec.traced && first == 0
	var next atomic.Int64
	next.Store(int64(first))
	var substituted atomic.Int64
	// gate lets a checkpoint wait for in-flight queries and hold new ones.
	var gate sync.RWMutex
	if checkpoints {
		rec.checkpoint(0, free0, 0)
	}
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			proc := fmt.Sprintf("client%d", c)
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= end {
					return
				}
				if checkpoints && i > 0 && i%daemonCheckpointEvery == 0 {
					gate.Lock()
					rec.checkpoint(i, w.freeMB(), float64(substituted.Load())/float64(i))
					gate.Unlock()
				}
				gate.RLock()
				if w.do(proc, w.query(i), rec) {
					substituted.Add(1)
				}
				gate.RUnlock()
			}
		}(c)
	}
	wg.Wait()
	w.issued = min(int(next.Load()), end)
	if checkpoints && w.issued == end {
		rec.checkpoint(end, w.freeMB(), float64(substituted.Load())/float64(end))
	}
	st := w.svc.Stats()
	rec.addVirtual((st.Engine.VirtualNow - v0).Seconds())
	if rec.traced {
		rec.add("tape.scratch_left_mb", float64(free0-w.freeMB()))
		return w.layers(rec, st)
	}
	return nil
}

// layers adds the daemon's per-layer counters from its /metrics
// registry and /stats snapshot, cumulative since the daemon started.
// The online engine's workload_queue_wait_seconds observes the session
// clock at service start rather than the wait, so the daemon reports
// its queue wait from the wire only (workload.queue_wait_ms).
func (w *daemon) layers(rec *recorder, st service.StatsBody) error {
	resp, err := w.client.Get(w.svc.URL() + "/metrics")
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	m := promSeries(string(text))
	addSeries(rec, m, true)
	rec.add("workload.mounts", m["workload_mounts_total"])
	rec.add("workload.shared_passes", m["workload_shared_passes_total"])
	rec.add("workload.cache_hits", m["workload_cache_hits_total"])
	rec.add("workload.cache_misses", m["workload_cache_misses_total"])
	rec.add("workload.cache_evictions", float64(st.Engine.CacheEvictions))
	rec.max("disk.peak_mb", float64(st.Engine.DiskHighWater)/tapejoin.BlocksPerMB)
	return nil
}

// do sends one query and checks its response. It reports whether the
// daemon substituted the requested method.
func (w *daemon) do(proc string, q service.Request, rec *recorder) (substituted bool) {
	body, err := json.Marshal(q)
	if err != nil {
		rec.fail(q.ID, "marshal: "+err.Error())
		return false
	}
	t0 := time.Now()
	resp, err := w.client.Post(w.svc.URL()+"/join", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.fail(q.ID, "post: "+err.Error())
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		rec.add("service.rejected", 1)
		rec.fail(q.ID, fmt.Sprintf("http %d: %s", resp.StatusCode, bytes.TrimSpace(msg)))
		return false
	}
	var (
		tAccepted, tFirst, tResult time.Time
		pairs, results             int64
		res                        service.ResultLine
		protocol                   string
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var kind struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &kind); err != nil {
			protocol = "bad line: " + err.Error()
			break
		}
		switch kind.Type {
		case "accepted":
			tAccepted = time.Now()
		case "pair":
			if pairs == 0 {
				tFirst = time.Now()
			}
			pairs++
		case "result":
			tResult = time.Now()
			results++
			if err := json.Unmarshal(line, &res); err != nil {
				protocol = "bad result: " + err.Error()
			}
		default:
			protocol = "unknown line type " + kind.Type
		}
	}
	if err := sc.Err(); err != nil && protocol == "" {
		protocol = "read: " + err.Error()
	}
	if protocol == "" && results != 1 {
		protocol = fmt.Sprintf("%d result lines, want 1", results)
	}
	if protocol != "" {
		rec.markLost(q.ID, protocol)
		return false
	}
	latency := tResult.Sub(t0)
	rec.op(ms(latency))
	if res.Failed {
		rec.fail(q.ID, res.Reason)
		return false
	}
	total := w.expect(q.R, q.S)
	wrongly := ""
	out := output{matches: res.Matches, virtual: res.VirtualMS / 1000, method: res.Method}
	if out.hash, err = strconv.ParseUint(res.OutputHash, 16, 64); err != nil {
		wrongly = "bad output hash " + res.OutputHash
	}
	switch {
	case res.ID != q.ID:
		wrongly = fmt.Sprintf("result for %q", res.ID)
	case q.StopAfter > 0:
		want := min(q.StopAfter, total)
		if res.Matches != want || (q.StopAfter < total && !res.Stopped) {
			wrongly = fmt.Sprintf("LIMIT %d of %d: %d matches, stopped=%v", q.StopAfter, total, res.Matches, res.Stopped)
		}
	default:
		out.ref = q.R + "/" + q.S
		if res.Matches != total || res.Stopped {
			wrongly = fmt.Sprintf("%s: %d matches, want %d (stopped=%v)", res.Method, res.Matches, total, res.Stopped)
		}
	}
	if q.Stream && pairs+res.StreamDropped != res.Matches {
		wrongly = fmt.Sprintf("streamed %d + dropped %d pairs of %d matches", pairs, res.StreamDropped, res.Matches)
	}
	rec.query(q.ID, out, wrongly)
	rec.mix("method=" + res.Method)
	if q.Stream {
		rec.mix("streamed")
	}
	if res.Shared {
		rec.mix("shared")
	}
	if res.CacheHit {
		rec.mix("cache-hit")
	}
	if q.StopAfter > 0 {
		rec.mix("limit")
		if pairs > 0 {
			rec.firstPairAt(ms(tFirst.Sub(t0)))
		}
	}
	substituted = q.Method != "" && res.Method != q.Method && !res.Shared
	if rec.traced {
		w.traceQuery(rec, proc, q, res, t0, tAccepted, tFirst, tResult, substituted)
	}
	return substituted
}

// traceQuery records the query's spans and per-layer timings: the
// request, its acceptance, the server's queue wait and service time
// (placed from the result line's wait_ms and latency_ms), and the
// first streamed pair.
func (w *daemon) traceQuery(rec *recorder, proc string, q service.Request, res service.ResultLine,
	t0, tAccepted, tFirst, tResult time.Time, substituted bool) {
	if tAccepted.IsZero() {
		tAccepted = t0
	}
	wait := time.Duration(res.WaitMS * float64(time.Millisecond))
	served := tAccepted.Add(time.Duration(res.LatencyMS * float64(time.Millisecond)))
	if served.After(tResult) {
		served = tResult
	}
	queued := tAccepted.Add(wait)
	if queued.After(served) {
		queued = served
	}
	root := rec.spans.add(q.ID, proc, "POST /join", 0, t0, tResult)
	if root != 0 {
		rec.spans.add(q.ID, proc, "accept", root, t0, tAccepted)
		rec.spans.add(q.ID, proc, "queue", root, tAccepted, queued)
		rec.spans.add(q.ID, proc, "service", root, queued, served)
		if !tFirst.IsZero() {
			rec.spans.add(q.ID, proc, "first-pair", root, tAccepted, tFirst)
		}
	}
	rec.add("service.accept_ms", ms(tAccepted.Sub(t0)))
	rec.add("service.server_ms", res.LatencyMS-res.WaitMS)
	rec.add("service.transport_ms", ms(tResult.Sub(t0))-res.LatencyMS)
	rec.add("workload.queue_wait_ms", res.WaitMS)
	rec.add("input.blocks", float64(w.cat[q.R].Blocks()+w.cat[q.S].Blocks()))
	rec.add("join.pairs_per_query", float64(res.Matches))
	if substituted {
		rec.add("workload.substituted_ratio", 1)
	}
}

func (w *daemon) verify(rec *recorder) error {
	ref, err := tapejoin.NewSystem(tapejoin.Config{MemoryMB: daemonMemMB, DiskMB: daemonDiskMB})
	if err != nil {
		return err
	}
	defer ref.Close()
	// The reference catalog lives on fresh cartridges, so the daemon's
	// accumulated tape scratch cannot constrain the reference joins.
	cat, _, err := daemonCatalog(ref, w.seed)
	if err != nil {
		return err
	}
	return verifyOutputs(rec, func(key string, method tapejoin.Method) (uint64, error) {
		r, s, _ := strings.Cut(key, "/")
		res, err := ref.Join(method, cat[r], cat[s])
		if err != nil {
			return 0, err
		}
		return res.Stats.OutputHash, nil
	})
}

func (w *daemon) close() {
	if w.svc != nil {
		w.svc.Drain()
		w.svc = nil
	}
	w.client.CloseIdleConnections()
	if w.sys != nil {
		w.sys.Close()
		w.sys = nil
	}
}
