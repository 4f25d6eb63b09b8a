// Command tapejoin runs a single tertiary join on the simulated
// device complex and reports its statistics:
//
//	tapejoin -method CTT-GH -r 2500 -s 10000 -mem 16 -disk 500
//
// Sizes are in megabytes (the paper's units). The output reports the
// virtual response time, phase breakdown, device traffic, and the
// verified join cardinality.
//
// With -batch N the command instead runs a synthetic N-query workload
// through the multi-query engine, scheduling the batch over the shared
// drives under -policy (fifo, mount-aware or shared-scan):
//
//	tapejoin -batch 9 -policy shared-scan -r 4 -s 64 -mem 16 -disk 128 -cache 32
package main

import (
	"flag"
	"fmt"
	"os"

	tapejoin "repro"
)

func main() {
	method := flag.String("method", "CTT-GH", "join method: DT-NB, CDT-NB/MB, CDT-NB/DB, DT-GH, CDT-GH, CTT-GH, TT-GH (also TT-SM, SYM-H)")
	rMB := flag.Int64("r", 100, "size of R, the smaller relation (MB)")
	sMB := flag.Int64("s", 1000, "size of S, the larger relation (MB)")
	memMB := flag.Float64("mem", 16, "main memory M (MB)")
	diskMB := flag.Float64("disk", 100, "disk scratch space D (MB)")
	disks := flag.Int("disks", 2, "number of disk drives n")
	ratio := flag.Float64("speed-ratio", 2, "disk/tape speed ratio X_D/X_T")
	compress := flag.Int("compress", 25, "tape data compressibility: 0, 25 or 50 (%)")
	ideal := flag.Bool("ideal", false, "use the paper's idealized cost model (no seeks or penalties)")
	split := flag.Bool("split-buffer", false, "use naive split double-buffering instead of interleaved")
	seed := flag.Int64("seed", 42, "data generator seed")
	keyspace := flag.Uint64("keyspace", 1<<20, "join key space size")
	verify := flag.Bool("verify", true, "check output cardinality against the generator's expectation")
	limit := flag.Int64("limit", 0, "print the first n matched pairs as a sample; presentation-only — the join still runs to completion and the match count stays exact (0 = print none)")
	stopAfter := flag.Int64("stop-after", 0, "stop the join itself after n output pairs — a true LIMIT-n: tape reads cease, the pipelines unwind, and the reported count covers only the delivered prefix (0 = run to completion; SYM-H streams matches earliest)")
	timeline := flag.Bool("timeline", false, "render a device-activity timeline of the run")
	faults := flag.String("faults", "", `fault schedule to inject, e.g. "transient=R:100:2,diskfail=1@40s" or "random=7:3"`)
	noRecover := flag.Bool("no-recover", false, "disable retry/checkpoint/degrade recovery (faults become fatal)")
	phases := flag.Bool("phases", false, "print the per-phase critical-path analysis (bottleneck device, overlap)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON file (load in Perfetto / chrome://tracing)")
	eventsOut := flag.String("events-out", "", "write the span/event stream as JSON Lines")
	metricsOut := flag.String("metrics-out", "", "write the metrics registry in Prometheus text format")
	batch := flag.Int("batch", 0, "run a synthetic batch of this many queries through the workload engine (0 = single join)")
	policy := flag.String("policy", "mount-aware", "batch scheduling policy: fifo, mount-aware or shared-scan")
	cacheMB := flag.Float64("cache", 0, "disk staging cache for the batch engine (MB, 0 = disabled)")
	backend := flag.String("backend", "sim", "storage backend: sim (virtual-time simulator) or file (real OS files, wall-clock transfers)")
	backendDir := flag.String("backend-dir", "", "scratch directory for -backend=file (default: the OS temp directory)")
	fileSync := flag.String("file-sync", "interval", "-backend=file fsync policy: none, interval or always")
	fileSynchronous := flag.Bool("file-synchronous", false, "-backend=file: disable the async I/O engine (transfers serialize in wall-clock time)")
	filePace := flag.Float64("file-pace", 0, "-backend=file: emulate modeled device bandwidths sped up this factor in wall-clock (0 = page-cache speed)")
	fileTimeout := flag.Duration("file-timeout", 0, "-backend=file: wall-clock deadline per device operation; overruns degrade the device and trip its breaker (0 = no deadline)")
	obsAddr := flag.String("obs-addr", "", "serve live telemetry (/metrics, /health, /flight, /debug/pprof) on this address while the run is in flight, e.g. 127.0.0.1:9100 (implies observability)")
	flag.Parse()

	obsOut := obsOutputs{
		phases:  *phases,
		trace:   *traceOut,
		events:  *eventsOut,
		metrics: *metricsOut,
	}
	cfg := tapejoin.Config{
		Backend:            *backend,
		BackendDir:         *backendDir,
		FileSync:           *fileSync,
		FileSynchronous:    *fileSynchronous,
		FilePace:           *filePace,
		FileOpTimeout:      *fileTimeout,
		MemoryMB:           *memMB,
		DiskMB:             *diskMB,
		NumDisks:           *disks,
		DiskTapeSpeedRatio: *ratio,
		ObsAddr:            *obsAddr,
	}
	var err error
	if *batch > 0 {
		err = runBatch(cfg, *batch, *policy, *cacheMB, *rMB, *sMB, *seed, *keyspace, *verify)
	} else {
		err = run(cfg, *method, *rMB, *sMB, *compress, *ideal, *split, *seed,
			*keyspace, *verify, *timeline, *faults, *noRecover, *limit, *stopAfter, obsOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tapejoin:", err)
		os.Exit(1)
	}
}

// obsOutputs collects the observability export flags; any of them,
// like -timeline, enables Config.Observe.
type obsOutputs struct {
	phases                 bool
	trace, events, metrics string
}

func (o obsOutputs) enabled() bool {
	return o.phases || o.trace != "" || o.events != "" || o.metrics != ""
}

func run(cfg tapejoin.Config, method string, rMB, sMB int64, compress int,
	ideal, split bool, seed int64, keyspace uint64,
	verify, timeline bool, faults string, noRecover bool,
	limit, stopAfter int64, obsOut obsOutputs) error {

	cfg.SplitBuffering = split
	cfg.Observe = timeline || obsOut.enabled()
	cfg.Faults = faults
	cfg.DisableRecovery = noRecover
	switch compress {
	case 0:
		cfg.Compression = tapejoin.Compress0
	case 25:
		cfg.Compression = tapejoin.Compress25
	case 50:
		cfg.Compression = tapejoin.Compress50
	default:
		return fmt.Errorf("compress must be 0, 25 or 50, got %d", compress)
	}
	if ideal {
		cfg.Profile = tapejoin.IdealTape
	}

	sys, err := tapejoin.NewSystem(cfg)
	if err != nil {
		return err
	}
	defer sys.Close()
	if addr := sys.ObsAddr(); addr != "" {
		fmt.Printf("obs server listening on http://%s (/metrics /health /flight /debug/pprof)\n", addr)
	}
	tR, err := sys.NewTape("tape-R", rMB+sMB+2)
	if err != nil {
		return err
	}
	tS, err := sys.NewTape("tape-S", sMB+rMB+2)
	if err != nil {
		return err
	}
	r, err := sys.CreateRelation(tR, tapejoin.RelationConfig{
		Name: "R", SizeMB: rMB, KeySpace: keyspace, Seed: seed,
	})
	if err != nil {
		return err
	}
	s, err := sys.CreateRelation(tS, tapejoin.RelationConfig{
		Name: "S", SizeMB: sMB, KeySpace: keyspace, Seed: seed + 1,
	})
	if err != nil {
		return err
	}

	res, err := sys.JoinWith(tapejoin.Method(method), r, s, tapejoin.JoinOptions{
		StopAfter: stopAfter,
		Sample:    int(limit),
	})
	if err != nil {
		return err
	}
	st := res.Stats

	fmt.Printf("%s: R=%d MB  S=%d MB  M=%g MB  D=%g MB  n=%d disks  backend=%s\n",
		method, rMB, sMB, cfg.MemoryMB, cfg.DiskMB, cfg.NumDisks, cfg.Backend)
	fmt.Printf("  response time     %v\n", st.Response.Round(0))
	fmt.Printf("  step I (setup)    %v\n", st.StepI.Round(0))
	fmt.Printf("  bare read of S+R  %v\n", sys.BareReadTime(float64(sMB+rMB)).Round(0))
	fmt.Printf("  relative cost     %.1f\n",
		float64(st.Response)/float64(sys.BareReadTime(float64(sMB+rMB))))
	fmt.Printf("  iterations        %d\n", st.Iterations)
	fmt.Printf("  passes over R     %d\n", st.RScans)
	fmt.Printf("  tape read/write   %.0f / %.0f MB (%d seeks)\n", st.TapeReadMB, st.TapeWrittenMB, st.TapeSeeks)
	fmt.Printf("  disk read/write   %.0f / %.0f MB (peak %.1f MB)\n", st.DiskReadMB, st.DiskWrittenMB, st.DiskPeakMB)
	fmt.Printf("  memory peak       %.2f MB\n", st.MemPeakMB)
	fmt.Printf("  device util       tapeR %.0f%%  tapeS %.0f%%  disks %.0f%%\n",
		100*st.TapeRUtil, 100*st.TapeSUtil, 100*st.DiskUtil)
	fmt.Printf("  output tuples     %d\n", st.Matches)
	if st.FirstTuple > 0 {
		fmt.Printf("  first tuple       %v\n", st.FirstTuple.Round(0))
	}
	if st.Stopped {
		fmt.Printf("  stopped early     after %d pairs (stop-after %d)\n", st.Matches, stopAfter)
	}
	if len(res.Sample) > 0 {
		fmt.Printf("  sample pairs      first %d of %d:\n", len(res.Sample), st.Matches)
		for _, pr := range res.Sample {
			fmt.Printf("    r.key=%d s.key=%d\n", pr.RKey, pr.SKey)
		}
	}
	if st.WallElapsed > 0 {
		fmt.Printf("  wall elapsed      %v (real I/O, overlap %.0f%%)\n",
			st.WallElapsed.Round(0), 100*st.WallOverlap)
	}
	if faults != "" {
		fmt.Printf("  faults injected   %d (%d retries, %d unit restarts)\n",
			st.Faults, st.Retries, st.UnitRestarts)
		fmt.Printf("  recovery time     %v\n", st.RecoveryTime.Round(0))
		if st.DisksLost > 0 {
			fmt.Printf("  disks lost        %d\n", st.DisksLost)
		}
		if st.DriveLost {
			fmt.Printf("  drive lost        degraded to %s\n", st.DegradedTo)
		}
	}

	if timeline {
		fmt.Println("\ndevice timeline (r=read w=write s=seek x=exchange . idle):")
		fmt.Print(res.Report.Timeline(100))
		fmt.Println("\nper-device busy breakdown:")
		fmt.Print(res.Report.DeviceSummary())
		fmt.Println()
	}

	if obsOut.enabled() {
		if err := writeObs(res.Report, obsOut); err != nil {
			return err
		}
	}

	if verify {
		want := tapejoin.ExpectedMatches(r, s)
		if stopAfter > 0 && want > stopAfter {
			// A stopped run delivers an exact prefix: min(n, |R ⋈ S|).
			want = stopAfter
		}
		if st.Matches != want {
			return fmt.Errorf("VERIFICATION FAILED: %d matches, expected %d", st.Matches, want)
		}
		fmt.Printf("  verification      ok (%d expected matches)\n", want)
	}
	return nil
}

// runBatch builds a synthetic n-query batch — S relations spread over
// three cartridges, R relations over two, submission order alternating
// S cartridges — and runs it through the workload engine under the
// given policy.
func runBatch(cfg tapejoin.Config, n int, policy string, cacheMB float64,
	rMB, sMB int64, seed int64, keyspace uint64, verify bool) error {

	sys, err := tapejoin.NewSystem(cfg)
	if err != nil {
		return err
	}
	defer sys.Close()
	if addr := sys.ObsAddr(); addr != "" {
		fmt.Printf("obs server listening on http://%s (/metrics /health /flight /debug/pprof)\n", addr)
	}

	nS := 3
	if n < nS {
		nS = n
	}
	sRels := make([]*tapejoin.Relation, nS)
	for i := range sRels {
		t, err := sys.NewTape(fmt.Sprintf("tape-S%d", i+1), sMB+2)
		if err != nil {
			return err
		}
		sRels[i], err = sys.CreateRelation(t, tapejoin.RelationConfig{
			Name: fmt.Sprintf("S%d", i+1), SizeMB: sMB,
			KeySpace: keyspace, Seed: seed + int64(100+i),
		})
		if err != nil {
			return err
		}
	}
	nR := 4
	if n < nR {
		nR = n
	}
	rRels := make([]*tapejoin.Relation, nR)
	for i := range rRels {
		t, err := sys.NewTape(fmt.Sprintf("tape-R%d", i/2+1), 2*rMB+2)
		if err != nil {
			return err
		}
		rRels[i], err = sys.CreateRelation(t, tapejoin.RelationConfig{
			Name: fmt.Sprintf("R%d", i+1), SizeMB: rMB,
			KeySpace: keyspace, Seed: seed + int64(i),
		})
		if err != nil {
			return err
		}
	}

	queries := make([]tapejoin.BatchQuery, n)
	expected := make([]int64, n)
	for i := range queries {
		r, s := rRels[i%nR], sRels[i%nS]
		queries[i] = tapejoin.BatchQuery{R: r, S: s}
		expected[i] = tapejoin.ExpectedMatches(r, s)
	}

	rep, err := sys.RunBatch(queries, tapejoin.BatchOptions{
		Policy:  tapejoin.BatchPolicy(policy),
		CacheMB: cacheMB,
	})
	if err != nil {
		return err
	}

	fmt.Printf("batch: %d queries  policy=%s  M=%g MB  D=%g MB  cache=%g MB\n",
		n, rep.Policy, cfg.MemoryMB, cfg.DiskMB, cacheMB)
	fmt.Printf("  makespan          %v\n", rep.Makespan.Round(0))
	fmt.Printf("  mounts            %d (R %d, S %d)\n", rep.Mounts, rep.RMounts, rep.SMounts)
	fmt.Printf("  shared passes     %d\n", rep.SharedPasses)
	fmt.Printf("  cache             %d hits, %d misses, %d evictions\n",
		rep.CacheHits, rep.CacheMisses, rep.CacheEvictions)
	fmt.Printf("  tape read/write   %.0f / %.0f MB\n", rep.TapeReadMB, rep.TapeWrittenMB)
	fmt.Printf("  disk peak         %.1f MB\n", rep.DiskPeakMB)
	fmt.Println("  queries:")
	for i, qr := range rep.Queries {
		flagStr := ""
		if qr.Shared {
			flagStr += " shared"
		}
		if qr.CacheHit {
			flagStr += " cache-hit"
		}
		if qr.Failed {
			fmt.Printf("    %-4s FAILED: %s\n", qr.ID, qr.Reason)
			continue
		}
		fmt.Printf("    %-4s %-10s wait %8v  run %8v  %d matches%s\n",
			qr.ID, qr.Method, qr.Wait.Round(0), (qr.End - qr.Start).Round(0), qr.Matches, flagStr)
		if verify && qr.Matches != expected[i] {
			return fmt.Errorf("VERIFICATION FAILED: query %s got %d matches, expected %d",
				qr.ID, qr.Matches, expected[i])
		}
	}
	if verify {
		fmt.Println("  verification      ok (all queries match expected cardinalities)")
	}
	return nil
}

// writeObs prints the phase analysis and writes the requested export
// files from a Join's observability report.
func writeObs(rep *tapejoin.Report, out obsOutputs) error {
	if out.phases {
		fmt.Println("\nphase analysis (critical path per phase):")
		fmt.Print(rep.String())
	}
	if out.trace != "" {
		data, err := rep.ChromeTrace()
		if err != nil {
			return err
		}
		if err := os.WriteFile(out.trace, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("  chrome trace      %s (load in ui.perfetto.dev)\n", out.trace)
	}
	if out.events != "" {
		f, err := os.Create(out.events)
		if err != nil {
			return err
		}
		if err := rep.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("  event stream      %s\n", out.events)
	}
	if out.metrics != "" {
		if err := os.WriteFile(out.metrics, []byte(rep.MetricsText()), 0o644); err != nil {
			return err
		}
		fmt.Printf("  metrics           %s\n", out.metrics)
	}
	return nil
}
