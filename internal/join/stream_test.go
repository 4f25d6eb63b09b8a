package join

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/device/filedev"
	"repro/internal/relation"
	"repro/internal/sim"
)

// totalIO sums every block a run moved on tape and disk — the "device
// work" a stopped run must undercut.
func totalIO(st Stats) int64 {
	return st.TapeBlocksRead + st.TapeBlocksWritten +
		st.DiskBlocksRead + st.DiskBlocksWritten
}

// TestStopAfterPrefixOracle is the prefix-consistency oracle: for every
// method on both backends, a StopAfter=n run must deliver exactly
// min(n, |R ⋈ S|) pairs, each of which appears in the full run's output
// multiset, with Stats.Stopped set iff the cut-off actually bit — and a
// stopped run must have moved strictly fewer blocks than the full run
// (early termination stops device work, it does not merely discard
// output).
func TestStopAfterPrefixOracle(t *testing.T) {
	c := oracleCase{
		name: "prefix", rBlocks: 24, sBlocks: 96, tuplesPerBlock: 4,
		keySpace: 150, seed: 31,
	}
	for _, be := range oracleBackends() {
		for _, m := range AllMethods() {
			m := m
			t.Run(be.name+"/"+m.Symbol(), func(t *testing.T) {
				res := be.res(t)

				full := &oracleSink{}
				fullRes, err := Run(m, c.build(t), res, full)
				if err != nil {
					t.Fatal(err)
				}
				total := full.Count()
				if total < 20 || total >= 1000 {
					t.Fatalf("full run has %d matches; oracle wants 20..999 so every cut-off is exercised", total)
				}
				universe := make(map[outputTriple]int, total)
				for _, tr := range full.triples {
					universe[tr]++
				}

				for _, n := range []int64{1, 10, 1000} {
					sink := &oracleSink{}
					result, err := RunWith(m, c.build(t), res, sink, ExecOptions{StopAfter: n})
					if err != nil {
						t.Fatalf("StopAfter=%d: %v", n, err)
					}
					want := n
					if total < n {
						want = total
					}
					if got := sink.Count(); got != want {
						t.Fatalf("StopAfter=%d delivered %d pairs, want exactly %d", n, got, want)
					}
					if stopped := result.Stats.Stopped; stopped != (n < total) {
						t.Fatalf("StopAfter=%d: Stopped = %v with %d total matches", n, stopped, total)
					}
					left := make(map[outputTriple]int, len(universe))
					for k, v := range universe {
						left[k] = v
					}
					for _, tr := range sink.triples {
						if left[tr] == 0 {
							t.Fatalf("StopAfter=%d emitted %+v more times than the full run", n, tr)
						}
						left[tr]--
					}
					if result.Stats.Stopped && totalIO(result.Stats) >= totalIO(fullRes.Stats) {
						t.Errorf("StopAfter=%d moved %d blocks, full run moved %d; stopping saved no device work",
							n, totalIO(result.Stats), totalIO(fullRes.Stats))
					}
				}
			})
		}
	}
}

// TestEarlyTerminationLeakFree runs every method to an immediate
// StopAfter=1 cut-off on the file backend and asserts the unwind is
// clean: no leftover scratch directories under the backend root and no
// leaked goroutines (ioengine workers, sim procs). Run under -race this
// is the early-termination leak detector.
func TestEarlyTerminationLeakFree(t *testing.T) {
	root := t.TempDir()
	baseline := runtime.NumGoroutine()

	for _, m := range AllMethods() {
		res := fastRes(24, 1024)
		res.Backend = filedev.New(root)
		result, err := RunWith(m, specWithSizes(t, 24, 96, 4), res, &CountSink{}, ExecOptions{StopAfter: 1})
		if err != nil {
			t.Fatalf("%s: %v", m.Symbol(), err)
		}
		if !result.Stats.Stopped {
			t.Fatalf("%s: run was not stopped", m.Symbol())
		}
	}

	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			t.Errorf("scratch directory %q leaked after early termination", e.Name())
		}
	}
	waitGoroutines(t, baseline)
}

// TestStoppedExecReleasesDiskScratch runs every method to a StopAfter=1
// cut-off inside a Session on both backends, with and without a
// caller-staged R copy, and asserts the store's space returns to its
// pre-run value: the method frees its own R copy or R buckets on the
// stop path, and never the caller-owned StagedR. A resident session
// (the daemon's) would otherwise fill its disk one LIMIT-n query at a
// time.
func TestStoppedExecReleasesDiskScratch(t *testing.T) {
	for _, backend := range []string{"sim", "file"} {
		for _, staged := range []bool{false, true} {
			for _, m := range AllMethods() {
				res := fastRes(24, 1024)
				if backend == "file" {
					res.Backend = filedev.New(t.TempDir())
				}
				s, err := NewSession(res)
				if err != nil {
					t.Fatal(err)
				}
				spec := specWithSizes(t, 24, 96, 4)
				var before, after int64
				var result *Result
				var runErr error
				s.Kernel().Spawn("query", func(p *sim.Proc) {
					var opts ExecOptions
					if staged {
						var f device.File
						if f, _, runErr = s.StageR(p, spec.R, nil); runErr != nil {
							return
						}
						opts.StagedR = f
					}
					before = s.Disks().Used()
					opts.StopAfter = 1
					result, runErr = s.Exec(p, m, spec, &CountSink{}, opts)
					after = s.Disks().Used()
				})
				if err := s.Kernel().Run(); err != nil {
					t.Fatal(err)
				}
				s.Close()
				name := fmt.Sprintf("%s/%s/staged=%v", backend, m.Symbol(), staged)
				if runErr != nil {
					t.Fatalf("%s: %v", name, runErr)
				}
				if !result.Stats.Stopped {
					t.Fatalf("%s: run was not stopped", name)
				}
				if after != before {
					t.Errorf("%s: disk use %d blocks after the stopped run, %d before", name, after, before)
				}
			}
		}
	}
}

// TestStreamSinkCancelStorm is the cancel storm: a fixed-seed sweep of
// random (method, cut-off) pairs terminated through the StreamSink
// Satisfied path — the cooperative signal the service layer uses for
// client disconnects — interleaved across both backends. Every run must
// unwind cleanly (no error, no leaked goroutines) and deliver at least
// its cut-off when enough matches exist.
func TestStreamSinkCancelStorm(t *testing.T) {
	baseline := runtime.NumGoroutine()
	methods := AllMethods()
	rng := rand.New(rand.NewSource(20260808))

	spec := specWithSizes(t, 24, 96, 4)
	total := relation.ExpectedMatches(spec.R, spec.S)

	for i := 0; i < 30; i++ {
		m := methods[rng.Intn(len(methods))]
		n := 1 + rng.Int63n(40)
		res := fastRes(24, 1024)
		backend := "sim"
		if rng.Intn(3) == 0 {
			res.Backend = filedev.New(t.TempDir())
			backend = "file"
		}
		sink := &StopSink{Inner: &CountSink{}, N: n}
		result, err := RunWith(m, specWithSizes(t, 24, 96, 4), res, sink, ExecOptions{})
		if err != nil {
			t.Fatalf("storm %d (%s/%s, N=%d): %v", i, backend, m.Symbol(), n, err)
		}
		// The Satisfied poll may overshoot by a batch, never undershoot.
		if got := sink.Count(); got < n && got < total {
			t.Fatalf("storm %d (%s/%s): %d pairs delivered, want >= min(%d, %d)",
				i, backend, m.Symbol(), got, n, total)
		}
		// Satisfied flips at unit granularity, so a run whose final unit
		// crosses the cut-off may finish instead of stopping — but then
		// it must have delivered the complete result.
		if !result.Stats.Stopped && sink.Count() != total {
			t.Fatalf("storm %d (%s/%s): not stopped yet only %d of %d pairs delivered (cut-off %d)",
				i, backend, m.Symbol(), sink.Count(), total, n)
		}
	}
	waitGoroutines(t, baseline)
}

// waitGoroutines polls until the goroutine count returns to the
// baseline (plus slack for the runtime's own background threads),
// failing the test if workers are still alive after two seconds.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines alive, baseline %d; leaked workers?\n%s",
				runtime.NumGoroutine(), baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
