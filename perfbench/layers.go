package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"strings"

	tapejoin "repro"
	"repro/internal/obs"
)

// joinPhases are the join methods' phase spans reported as
// join.phase.<name>_vs, plus the batch engine's shared pass.
var joinPhases = []string{
	"copy-R", "hash-R", "stage-S", "join-chunk", "bucket-pair", "hash-window", "spool-bucket",
	"sort-runs", "merge-pass", "merge-join", "skew-repair", "sym-stream", "shared-scan",
}

// addReport adds the per-layer counters of one observed run: registry
// series, and the summed virtual duration of each join phase span.
// perRun marks a run without per-query join stats (a batch): skew
// counts then come from its skew-repair spans and device busy time
// from the registry's request-time histograms.
func addReport(rec *recorder, rep *tapejoin.Report, perRun bool) {
	if data, err := rep.MetricsJSON(); err == nil {
		var series []obs.MetricJSON
		if json.Unmarshal(data, &series) == nil {
			m := map[string]float64{}
			for _, s := range series {
				m[s.Name] += s.Value
				m[s.Name+"_sum"] += s.Sum
				m[s.Name+"_count"] += float64(s.Count)
			}
			addSeries(rec, m, perRun)
		}
	}
	var spans spanLines
	rep.WriteJSONL(&spans) // stops with errEvents after the last span
	sc := bufio.NewScanner(&spans.buf)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var line struct {
			Type   string     `json:"type"`
			Name   string     `json:"name"`
			StartS float64    `json:"start_s"`
			EndS   float64    `json:"end_s"`
			Attrs  []obs.Attr `json:"attrs"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil || line.Type != "span" {
			continue
		}
		rec.add("join.phase."+line.Name+"_vs", line.EndS-line.StartS)
		if perRun && line.Name == "skew-repair" {
			for _, a := range line.Attrs {
				v, _ := strconv.ParseFloat(a.Value, 64)
				switch a.Key {
				case "heavy":
					rec.add("hashutil.heavy_hitters", v)
				case "parts":
					rec.add("hashutil.skew_partitions", v)
				}
			}
		}
	}
}

var errEvents = errors.New("span lines done")

// spanLines collects the span lines of a JSONL export and stops the
// export at the first device event line, which are many and unused.
type spanLines struct{ buf bytes.Buffer }

func (w *spanLines) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte(`{"type":"event"`)) {
		return 0, errEvents
	}
	return w.buf.Write(p)
}

// addSeries adds the device and engine counters of a metrics registry,
// given as per-name sums (histograms as <name>_sum and <name>_count).
// busy adds device busy time from the request-time histograms.
func addSeries(rec *recorder, m map[string]float64, busy bool) {
	for key, name := range map[string]string{
		"tape.blocks_read":       "tape_blocks_read_total",
		"tape.blocks_written":    "tape_blocks_written_total",
		"tape.seeks":             "tape_seeks_total",
		"tape.exchanges":         "tape_exchanges_total",
		"disk.blocks_read":       "disk_blocks_read_total",
		"disk.blocks_written":    "disk_blocks_written_total",
		"buffer.occupancy_sum":   "buffer_occupancy_ratio_sum",
		"buffer.occupancy_count": "buffer_occupancy_ratio_count",
		"device.wall_busy_s":     "iodev_wall_busy_seconds",
		"device.retries":         "iodev_op_retries_total",
	} {
		rec.add(key, m[name])
	}
	if busy {
		rec.add("tape.busy_vs", m["tape_request_seconds_sum"])
		rec.add("disk.busy_vs", m["disk_request_seconds_sum"])
	}
}

// promSeries parses Prometheus text exposition into per-name sums over
// all label sets (histograms appear as <name>_sum and <name>_count).
func promSeries(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out
}
