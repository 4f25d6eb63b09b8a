// Package trace records device-level I/O events of a simulated join
// run and renders them as a text timeline, making the parallel-I/O
// overlap that the paper's concurrent methods achieve directly
// visible: which device was busy when, with what, and where the
// serialization points are.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Kind classifies a device event.
type Kind int

// Event kinds.
const (
	TapeRead Kind = iota
	TapeWrite
	TapeSeek
	TapeExchange
	DiskRead
	DiskWrite
	Fault   // an injected fault or device stall hit the run
	Retry   // recovery work: backoff and re-reads after a fault
	Degrade // a permanent device loss forced a re-plan
	Mark    // phase boundaries and other annotations
)

func (k Kind) String() string {
	switch k {
	case TapeRead:
		return "tape-read"
	case TapeWrite:
		return "tape-write"
	case TapeSeek:
		return "tape-seek"
	case TapeExchange:
		return "tape-exchange"
	case DiskRead:
		return "disk-read"
	case DiskWrite:
		return "disk-write"
	case Fault:
		return "fault"
	case Retry:
		return "retry"
	case Degrade:
		return "degrade"
	case Mark:
		return "mark"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// glyph is the timeline character for the kind.
func (k Kind) glyph() byte {
	switch k {
	case TapeRead, DiskRead:
		return 'r'
	case TapeWrite, DiskWrite:
		return 'w'
	case TapeSeek:
		return 's'
	case TapeExchange:
		return 'x'
	case Fault:
		return '!'
	case Retry:
		return '~'
	case Degrade:
		return 'X'
	}
	return '|'
}

// Event is one device activity interval.
type Event struct {
	// Device names the device, e.g. "tape:R" or "disk".
	Device string
	// Kind classifies the activity.
	Kind Kind
	// Start and End bound the interval in virtual time.
	Start, End sim.Time
	// Blocks is the transfer size, when applicable.
	Blocks int64
	// Span is the obs span ID of the join phase that issued the event,
	// or 0 when unattributed.
	Span int64
	// Note annotates marks.
	Note string
}

// Duration returns the event's length.
func (e Event) Duration() sim.Duration { return sim.Duration(e.End - e.Start) }

// SpanSource resolves the phase span currently open on a simulation
// process. It is implemented by obs.Tracker; the interface lives here
// so that devices depend only on trace.
type SpanSource interface {
	ActiveSpan(p *sim.Proc) int64
}

// Recorder accumulates events. A nil *Recorder is valid and records
// nothing, so devices can call it unconditionally.
type Recorder struct {
	Events []Event
	// Spans, when set, stamps events added via AddFor with the issuing
	// process's active phase span.
	Spans SpanSource
}

// Add appends an event. No-op on a nil recorder.
func (r *Recorder) Add(e Event) {
	if r == nil {
		return
	}
	r.Events = append(r.Events, e)
}

// AddFor appends an event issued by process p, stamping it with p's
// active phase span unless the event already carries one. No-op on a
// nil recorder.
func (r *Recorder) AddFor(p *sim.Proc, e Event) {
	if r == nil {
		return
	}
	if e.Span == 0 && r.Spans != nil {
		e.Span = r.Spans.ActiveSpan(p)
	}
	r.Events = append(r.Events, e)
}

// SpanAt returns the phase span open on p, for callers that hand work
// to stackless transfer tasks and must stamp the tasks' events
// explicitly.
func (r *Recorder) SpanAt(p *sim.Proc) int64 {
	if r == nil || r.Spans == nil {
		return 0
	}
	return r.Spans.ActiveSpan(p)
}

// Mark records a zero-width annotation at time t.
func (r *Recorder) Mark(t sim.Time, note string) {
	r.Add(Event{Device: "-", Kind: Mark, Start: t, End: t, Note: note})
}

// Devices returns the distinct device names, sorted.
func (r *Recorder) Devices() []string {
	if r == nil {
		return nil
	}
	set := map[string]bool{}
	for _, e := range r.Events {
		if e.Kind != Mark {
			set[e.Device] = true
		}
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// BusyTime returns the device's total busy time. Overlapping events —
// a retry backoff spanning the stalled read it re-issues — are merged
// before summing, so busy time never exceeds wall-clock time.
func (r *Recorder) BusyTime(device string) sim.Duration {
	if r == nil {
		return 0
	}
	type iv struct{ s, t sim.Time }
	var ivs []iv
	for _, e := range r.Events {
		if e.Device == device && e.Kind != Mark && e.End > e.Start {
			ivs = append(ivs, iv{e.Start, e.End})
		}
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].s != ivs[j].s {
			return ivs[i].s < ivs[j].s
		}
		return ivs[i].t < ivs[j].t
	})
	var total sim.Duration
	var cur iv
	for i, v := range ivs {
		if i == 0 || v.s > cur.t {
			total += sim.Duration(cur.t - cur.s)
			cur = v
			continue
		}
		if v.t > cur.t {
			cur.t = v.t
		}
	}
	total += sim.Duration(cur.t - cur.s)
	return total
}

// Timeline renders the recorded events as a text Gantt chart of width
// columns spanning [0, end]: one row per device, 'r' for reads, 'w'
// for writes, 's' for seeks, 'x' for media exchanges, '.' for idle.
// When multiple kinds land in one cell the busiest kind wins.
// Activity past end is clamped into the last cell, and instantaneous
// events (Start == End, e.g. fault markers) get a one-cell glyph.
func (r *Recorder) Timeline(end sim.Time, width int) string {
	if r == nil || len(r.Events) == 0 || end <= 0 || width < 1 {
		return ""
	}
	devices := r.Devices()
	cell := float64(end) / float64(width)

	var b strings.Builder
	nameW := 0
	for _, d := range devices {
		if len(d) > nameW {
			nameW = len(d)
		}
	}
	for _, dev := range devices {
		// Accumulate busy time per (cell, kind).
		weights := make([]map[Kind]float64, width)
		add := func(c int, k Kind, w float64) {
			if weights[c] == nil {
				weights[c] = make(map[Kind]float64)
			}
			weights[c][k] += w
		}
		for _, e := range r.Events {
			if e.Device != dev || e.Kind == Mark {
				continue
			}
			s, t := float64(e.Start), float64(e.End)
			s = minF(maxF(s, 0), float64(end))
			t = minF(maxF(t, s), float64(end))
			first := int(s / cell)
			if first >= width {
				first = width - 1
			}
			if t <= s {
				// Instantaneous (or entirely past end): a full-cell
				// weight so the glyph renders and outranks partial
				// occupants of the cell.
				add(first, e.Kind, cell)
				continue
			}
			last := int(t / cell)
			if last >= width {
				last = width - 1
			}
			for c := first; c <= last; c++ {
				lo := float64(c) * cell
				hi := lo + cell
				ov := minF(t, hi) - maxF(s, lo)
				if ov <= 0 {
					continue
				}
				add(c, e.Kind, ov)
			}
		}
		row := make([]byte, width)
		for c := range row {
			row[c] = '.'
			var best float64
			// Fixed descending kind order keeps ties deterministic and
			// lets fault/retry/degrade glyphs win them.
			for k := Mark; k >= TapeRead; k-- {
				if w := weights[c][k]; w > best {
					best = w
					row[c] = k.glyph()
				}
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", nameW, dev, row)
	}
	fmt.Fprintf(&b, "%-*s  0%*s\n", nameW, "", width, end.String())
	return b.String()
}

// Summary aggregates per-device, per-kind busy time.
func (r *Recorder) Summary(end sim.Time) string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for _, dev := range r.Devices() {
		perKind := map[Kind]sim.Duration{}
		var kinds []Kind
		for _, e := range r.Events {
			if e.Device != dev || e.Kind == Mark {
				continue
			}
			if _, ok := perKind[e.Kind]; !ok {
				kinds = append(kinds, e.Kind)
			}
			perKind[e.Kind] += e.Duration()
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		busy := r.BusyTime(dev)
		fmt.Fprintf(&b, "%-8s busy %6.1f%%", dev, 100*float64(busy)/float64(end))
		for _, k := range kinds {
			fmt.Fprintf(&b, "  %s %.0fs", k, perKind[k].Seconds())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
