package join

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tape"
	"repro/internal/trace"
)

var updateSchedule = flag.Bool("update-schedule", false, "rewrite testdata/schedule/*.golden from the current code")

// orderSink digests the emitted pairs in emission order, on top of the
// order-independent CountSink hash, so a change to the hash table or
// the iterator that reorders output shows even when the multiset holds.
type orderSink struct {
	CountSink
	order uint64
}

func (o *orderSink) Emit(p *sim.Proc, r, s block.Tuple) {
	o.CountSink.Emit(p, r, s)
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%x|%d|%x|%d", r.Key, r.Payload, s.Key, s.Payload, o.order)
	o.order = h.Sum64()
}

// scheduleCase is one run whose full device schedule is pinned.
type scheduleCase struct {
	name   string
	method Method
	res    func() Resources
	spec   func(t *testing.T) Spec
}

// scheduleRes is the fast model with a nonzero per-request disk
// overhead and the calibrated tape profile, so positioning costs and
// per-drive request counts show in the schedule.
func scheduleRes() Resources {
	res := fastRes(10, 128)
	res.Tape = tape.DLT4000()
	res.DiskOverhead = 3 * time.Millisecond
	return res
}

// contendedRes stripes over three disks with a 7-block request size, so
// every striped transfer leaves an uneven remainder and CDT-NB/MB's
// concurrent S reader contends with the join for each drive.
func contendedRes() Resources {
	res := scheduleRes()
	res.NumDisks = 3
	res.IOChunk = 7
	return res
}

func scheduleCases() []scheduleCase {
	var cases []scheduleCase
	for _, m := range AllMethods() {
		cases = append(cases, scheduleCase{name: m.Symbol(), method: m, res: scheduleRes, spec: testSpec})
	}
	return append(cases, scheduleCase{
		name: "CDT-NB/MB-3disk", method: CDTNBMB{}, res: contendedRes,
		spec: func(t *testing.T) Spec { return specWithSizes(t, 20, 101, 4) },
	}, scheduleCase{
		name: "CDT-GH-faults", method: CDTGH{}, res: faultedRes, spec: testSpec,
	})
}

// faultedRes adds delivered-copy corruption on both tapes and the
// array, a transient tape error and a disk stall, so the retry path's
// schedule is pinned too.
func faultedRes() Resources {
	res := contendedRes()
	sched, err := fault.Parse("corrupt=R:3:1,corrupt=S:10:2,corrupt=disk:4:1,transient=S:20:1,stall=disk:50ms:1")
	if err != nil {
		panic(err)
	}
	res.Faults = sched
	return res
}

// renderSchedule runs one case with a recorder and a span tracker and
// renders everything the schedule determines: response time, device
// busy times, the output digests, every span and every device event.
func renderSchedule(t *testing.T, c scheduleCase) string {
	t.Helper()
	res := c.res()
	rec := &trace.Recorder{}
	tracker := obs.NewTracker()
	res.Trace = rec
	res.Spans = tracker
	rec.Spans = tracker
	sink := &orderSink{}
	out, err := Run(c.method, c.spec(t), res, sink)
	if err != nil {
		t.Fatal(err)
	}
	st := out.Stats
	var b strings.Builder
	fmt.Fprintf(&b, "response %d\n", st.Response)
	fmt.Fprintf(&b, "busy tapeR=%d tapeS=%d disk=%d\n", st.TapeRBusy, st.TapeSBusy, st.DiskBusy)
	devs := rec.Devices()
	sort.Strings(devs)
	for _, d := range devs {
		fmt.Fprintf(&b, "device %s busy=%d\n", d, rec.BusyTime(d))
	}
	fmt.Fprintf(&b, "faults %d retries %d restarts %d recovery %d\n", st.Faults, st.Retries, st.UnitRestarts, st.RecoveryTime)
	fmt.Fprintf(&b, "matches %d hash %016x order %016x\n", sink.Matches, sink.Hash(), sink.order)
	for _, sp := range tracker.Spans() {
		fmt.Fprintf(&b, "span %d parent=%d %s proc=%s [%d,%d]\n", sp.ID, sp.Parent, sp.Name, sp.Proc, sp.Start, sp.End)
	}
	for _, e := range rec.Events {
		fmt.Fprintf(&b, "event %s %s [%d,%d] blocks=%d span=%d %q\n", e.Device, e.Kind, e.Start, e.End, e.Blocks, e.Span, e.Note)
	}
	return b.String()
}

// TestScheduleIdentityGolden pins the sim backend's complete schedule
// for every method plus a contended three-disk striping case. The
// goldens were captured from the goroutine-per-drive kernel; any
// change that moves one event, one tie-break or one virtual
// nanosecond fails here. Regenerate only for a deliberate schedule
// change: go test ./internal/join -run TestScheduleIdentityGolden -update-schedule
func TestScheduleIdentityGolden(t *testing.T) {
	for _, c := range scheduleCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got := renderSchedule(t, c)
			path := filepath.Join("testdata", "schedule", strings.ReplaceAll(c.name, "/", "_")+".golden")
			if *updateSchedule {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("schedule diverges at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("schedule length %d lines, golden %d", len(gl), len(wl))
		})
	}
}
