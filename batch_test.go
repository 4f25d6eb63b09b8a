package tapejoin_test

import (
	"strings"
	"testing"

	tapejoin "repro"
)

// batchFixture builds a system and a 6-query batch over two S
// cartridges and two R relations, fresh per call (media are stateful).
func batchFixture(t *testing.T, observe bool) (*tapejoin.System, []tapejoin.BatchQuery, []int64) {
	t.Helper()
	sys, err := tapejoin.NewSystem(tapejoin.Config{
		MemoryMB: 16, DiskMB: 128, Profile: tapejoin.IdealTape, Observe: observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	mkRel := func(name string, sizeMB int64, seed int64) *tapejoin.Relation {
		t.Helper()
		tp, err := sys.NewTape("tape-"+name, sizeMB+2)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := sys.CreateRelation(tp, tapejoin.RelationConfig{
			Name: name, SizeMB: sizeMB, KeySpace: 1 << 14, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	s1 := mkRel("S1", 32, 1)
	s2 := mkRel("S2", 32, 2)
	r1 := mkRel("R1", 4, 11)
	r2 := mkRel("R2", 4, 12)

	pairs := [][2]*tapejoin.Relation{
		{r1, s1}, {r2, s2}, {r1, s1}, {r2, s1}, {r1, s2}, {r2, s1},
	}
	var queries []tapejoin.BatchQuery
	var expected []int64
	for _, p := range pairs {
		queries = append(queries, tapejoin.BatchQuery{R: p[0], S: p[1]})
		expected = append(expected, tapejoin.ExpectedMatches(p[0], p[1]))
	}
	return sys, queries, expected
}

func TestRunBatchPolicies(t *testing.T) {
	makespans := map[tapejoin.BatchPolicy]int64{}
	for _, policy := range []tapejoin.BatchPolicy{
		tapejoin.BatchFIFO, tapejoin.BatchMountAware, tapejoin.BatchSharedScan,
	} {
		sys, queries, expected := batchFixture(t, false)
		rep, err := sys.RunBatch(queries, tapejoin.BatchOptions{
			Policy: policy, CacheMB: 16,
		})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if rep.Policy != policy {
			t.Fatalf("policy echoed as %q", rep.Policy)
		}
		for i, qr := range rep.Queries {
			if qr.Failed {
				t.Fatalf("%s: query %s failed: %s", policy, qr.ID, qr.Reason)
			}
			if qr.Matches != expected[i] {
				t.Errorf("%s: query %s matches = %d, want %d", policy, qr.ID, qr.Matches, expected[i])
			}
		}
		if len(rep.Schedule) == 0 {
			t.Fatalf("%s: empty schedule log", policy)
		}
		makespans[policy] = int64(rep.Makespan)
	}
	if makespans[tapejoin.BatchSharedScan] >= makespans[tapejoin.BatchFIFO] {
		t.Fatalf("shared-scan makespan %d not below FIFO %d",
			makespans[tapejoin.BatchSharedScan], makespans[tapejoin.BatchFIFO])
	}
}

// TestRunBatchObserve runs the batch fixture with Observe on and off:
// the observed run must carry a report, and recording must not change
// the schedule or any result.
func TestRunBatchObserve(t *testing.T) {
	run := func(observe bool) *tapejoin.BatchReport {
		sys, queries, _ := batchFixture(t, observe)
		rep, err := sys.RunBatch(queries, tapejoin.BatchOptions{CacheMB: 16})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	off, on := run(false), run(true)
	if off.Report != nil {
		t.Fatal("Observe off but Report set")
	}
	if on.Report == nil {
		t.Fatal("Observe set but Report nil")
	}
	metrics := on.Report.MetricsText()
	for _, want := range []string{"workload_mounts_total", "workload_cache_hits_total"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics output missing %s", want)
		}
	}
	if tl := on.Report.Timeline(100); !strings.Contains(tl, "tape:S") {
		t.Errorf("batch timeline lacks the S drive:\n%s", tl)
	}

	if on.Makespan != off.Makespan || on.Mounts != off.Mounts {
		t.Fatalf("observing moved the batch: makespan %v/%v, mounts %d/%d",
			on.Makespan, off.Makespan, on.Mounts, off.Mounts)
	}
	if a, b := strings.Join(on.Schedule, "\n"), strings.Join(off.Schedule, "\n"); a != b {
		t.Fatalf("observing changed the schedule:\n--- on\n%s\n--- off\n%s", a, b)
	}
	for i, q := range on.Queries {
		o := off.Queries[i]
		if q.Matches != o.Matches || q.OutputHash != o.OutputHash {
			t.Errorf("query %s: observed %d matches hash %x, unobserved %d hash %x",
				q.ID, q.Matches, q.OutputHash, o.Matches, o.OutputHash)
		}
	}
}

func TestRunBatchValidation(t *testing.T) {
	sys, queries, _ := batchFixture(t, false)
	if _, err := sys.RunBatch(nil, tapejoin.BatchOptions{}); err == nil {
		t.Fatal("want error for empty batch")
	}
	if _, err := sys.RunBatch(queries, tapejoin.BatchOptions{Policy: "bogus"}); err == nil {
		t.Fatal("want error for unknown policy")
	}
	if _, err := sys.RunBatch([]tapejoin.BatchQuery{{}}, tapejoin.BatchOptions{}); err == nil {
		t.Fatal("want error for missing relations")
	}
}
