package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// maxTracedQueries bounds the spans a traced run keeps in memory:
// spans of later queries are counted as dropped, not stored.
const maxTracedQueries = 4000

// span is one benchmark-side span around a call into the program.
// Times are wall offsets from the log's epoch.
type span struct {
	id, parent int64
	name, proc string
	query      string
	start, end time.Duration
}

// spanLog keeps the benchmark's own spans in memory until the run ends.
type spanLog struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	queries map[string]bool
	max     int
	dropped int
}

func newSpanLog(maxQueries int) *spanLog {
	return &spanLog{epoch: time.Now(), queries: map[string]bool{}, max: maxQueries}
}

// add records a finished span of query and returns its ID, or 0 when
// the query is beyond the log's bound. A nil log records nothing.
func (l *spanLog) add(query, proc, name string, parent int64, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.queries[query] {
		if len(l.queries) >= l.max {
			l.dropped++
			return 0
		}
		l.queries[query] = true
	}
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{
		id: id, parent: parent, name: name, proc: proc, query: query,
		start: start.Sub(l.epoch), end: end.Sub(l.epoch),
	})
	return id
}

// selfTimes returns each span name's mean self time in ms: its
// duration minus the part of it its children cover.
func (l *spanLog) selfTimes() map[string]float64 {
	children := map[int64][]span{}
	for _, s := range l.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	sum := map[string]float64{}
	n := map[string]int{}
	for _, s := range l.spans {
		covered := time.Duration(0)
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		cur := s.start
		for _, k := range kids {
			from, to := k.start, k.end
			if from < cur {
				from = cur
			}
			if to > s.end {
				to = s.end
			}
			if to > from {
				covered += to - from
				cur = to
			}
		}
		sum[s.name] += ms(s.end - s.start - covered)
		n[s.name]++
	}
	out := map[string]float64{}
	for name, v := range sum {
		out[name] = v / float64(n[name])
	}
	return out
}

// write renders the spans as Chrome trace_event JSON, checks the
// document with the same validator cmd/tracecheck runs, and writes it
// to path.
func (l *spanLog) write(path string) error {
	spans := make([]*obs.Span, 0, len(l.spans))
	for _, s := range l.spans {
		spans = append(spans, &obs.Span{
			ID: s.id, Parent: s.parent, Name: s.name, Proc: s.proc,
			Start: sim.Time(s.start), End: sim.Time(s.end),
			Attrs: []obs.Attr{obs.A("query", s.query)},
		})
	}
	if len(spans) == 0 {
		return fmt.Errorf("span log is empty")
	}
	data, err := obs.ChromeTrace(spans, nil)
	if err != nil {
		return fmt.Errorf("render spans: %w", err)
	}
	if err := obs.CheckChromeTrace(data); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func (l *spanLog) summary() string {
	self := l.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "spans: %d kept for %d queries, %d dropped; mean self time:", len(l.spans), len(l.queries), l.dropped)
	for _, name := range names {
		fmt.Fprintf(&b, " %s=%.4fms", name, self[name])
	}
	return b.String()
}
