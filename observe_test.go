package tapejoin

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

func observedJoin(t *testing.T, m Method, cfg Config) *Result {
	t.Helper()
	cfg.Observe = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, s := makeRelations(t, sys)
	res, err := sys.Join(m, r, s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestObserveReport(t *testing.T) {
	res := observedJoin(t, CDTGH, Config{MemoryMB: 1, DiskMB: 4, Profile: IdealTape})
	rep := res.Report
	if rep == nil {
		t.Fatal("Observe set but Report is nil")
	}
	if rep.Total.Wall <= 0 || rep.Total.Bottleneck == "" {
		t.Fatalf("total = %+v", rep.Total)
	}
	phases := map[string]PhaseReport{}
	for _, p := range rep.Phases {
		phases[p.Name] = p
		if p.Wall <= 0 || p.Count < 1 {
			t.Errorf("degenerate phase %+v", p)
		}
		if p.Overlap < 0 || p.Overlap >= 1 {
			t.Errorf("phase %s overlap %v outside [0, 1)", p.Name, p.Overlap)
		}
		if p.BottleneckBusy > p.Wall {
			t.Errorf("phase %s busy %v exceeds wall %v", p.Name, p.BottleneckBusy, p.Wall)
		}
	}
	for _, want := range []string{"hash-R", "stage-S", "join-chunk"} {
		if _, ok := phases[want]; !ok {
			t.Errorf("CDT-GH run missing phase %q (have %v)", want, rep.Phases)
		}
	}
	if s := rep.String(); !strings.Contains(s, "TOTAL") || !strings.Contains(s, "stage-S") {
		t.Errorf("phase table:\n%s", s)
	}
}

func TestObserveExporters(t *testing.T) {
	res := observedJoin(t, CDTGH, Config{MemoryMB: 1, DiskMB: 4, Profile: IdealTape})
	rep := res.Report

	data, err := rep.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckChromeTrace(data); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"type":"span"`) || !strings.Contains(buf.String(), `"type":"event"`) {
		t.Error("JSONL stream missing spans or events")
	}

	text := rep.MetricsText()
	for _, want := range []string{
		`tape_blocks_read_total{drive="S"}`,
		"disk_blocks_written_total",
		"# TYPE tape_request_seconds histogram",
		"buffer_occupancy_ratio",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	js, err := rep.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(js, []byte("tape_blocks_read_total")) {
		t.Error("metrics JSON missing tape counter")
	}
}

func TestObserveOffLeavesReportNil(t *testing.T) {
	sys := quickSystem(t, 1, 4)
	r, s := makeRelations(t, sys)
	res, err := sys.Join(CDTGH, r, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report != nil {
		t.Fatal("Report should be nil without Observe")
	}
}

func TestObserveWithFaultsCountsDecisions(t *testing.T) {
	res := observedJoin(t, CTTGH, Config{
		MemoryMB: 1, DiskMB: 4, Profile: IdealTape,
		Faults: "transient=R:5:2",
	})
	text := res.Report.MetricsText()
	if !strings.Contains(text, `fault_decisions_total{outcome="transient"} 2`) {
		t.Errorf("fault decisions not counted:\n%s", grepLines(text, "fault"))
	}
	if !strings.Contains(text, "join_retry_backoff_seconds_count") {
		t.Errorf("retry backoff histogram missing:\n%s", grepLines(text, "retry"))
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// deviceSeries returns the tape_ and disk_ lines of a Prometheus
// exposition with sample values cut off: HELP and TYPE headers and
// series keys (name and labels).
func deviceSeries(text string) []string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		key := strings.TrimPrefix(strings.TrimPrefix(l, "# HELP "), "# TYPE ")
		if !strings.HasPrefix(key, "tape_") && !strings.HasPrefix(key, "disk_") {
			continue
		}
		if !strings.HasPrefix(l, "#") {
			l = l[:strings.LastIndexByte(l, ' ')]
		}
		out = append(out, l)
	}
	return out
}

// TestDeviceSeriesMatchAcrossBackends pins the single definition of the
// device metric series: a simulator run and a file-backend run of the
// same join export the same tape_ and disk_ series, help text included.
func TestDeviceSeriesMatchAcrossBackends(t *testing.T) {
	cfg := Config{MemoryMB: 1, DiskMB: 4, Profile: IdealTape}
	simRun := deviceSeries(observedJoin(t, CDTGH, cfg).Report.MetricsText())
	cfg.Backend, cfg.BackendDir, cfg.FileSync = "file", t.TempDir(), "none"
	fileRun := deviceSeries(observedJoin(t, CDTGH, cfg).Report.MetricsText())
	if len(simRun) == 0 {
		t.Fatal("no device series exported")
	}
	if a, b := strings.Join(simRun, "\n"), strings.Join(fileRun, "\n"); a != b {
		t.Fatalf("device series differ across backends:\n--- sim\n%s\n--- file\n%s", a, b)
	}
}
