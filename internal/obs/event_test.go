package obs

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func sampleEvents() []Event {
	return []Event{
		{Device: "tape:R", Kind: TapeRead, Start: 0, End: secs(40), Blocks: 40},
		{Device: "tape:R", Kind: TapeSeek, Start: secs(40), End: secs(50)},
		{Device: "disk0", Kind: DiskWrite, Start: secs(10), End: secs(30), Blocks: 20},
		{Device: "disk0", Kind: DiskRead, Start: secs(60), End: secs(100), Blocks: 40},
		{Device: "-", Kind: Mark, Start: secs(50), End: secs(50), Note: "step I done"},
	}
}

// busyLine returns dev's Summary line over a 100 s run.
func busyLine(t *testing.T, events []Event, dev string) string {
	t.Helper()
	for _, l := range strings.Split(Summary(events, secs(100)), "\n") {
		if strings.HasPrefix(l, dev+" ") {
			return l
		}
	}
	t.Fatalf("no summary line for %s", dev)
	return ""
}

// TestNilTrackerEventsAreSafe pins that devices may record into a nil
// tracker, and that an empty event list renders as nothing.
func TestNilTrackerEventsAreSafe(t *testing.T) {
	var tr *Tracker
	k := sim.NewKernel()
	k.Spawn("device", func(p *sim.Proc) {
		tr.Record(p, Event{Device: "x", Kind: TapeRead})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.Events() != nil {
		t.Fatal("nil tracker should have no events")
	}
	if Timeline(tr.Events(), secs(10), 10) != "" || Summary(tr.Events(), secs(10)) != "" {
		t.Fatal("no events should render empty")
	}
}

func TestDevicesAndBusyTime(t *testing.T) {
	events := sampleEvents()
	devs := devices(events)
	if len(devs) != 2 || devs[0] != "disk0" || devs[1] != "tape:R" {
		t.Fatalf("devices = %v", devs)
	}
	if l := busyLine(t, events, "tape:R"); !strings.Contains(l, "busy   50.0%") {
		t.Fatalf("tape busy: %q, want 50s of 100s", l)
	}
	if l := busyLine(t, events, "disk0"); !strings.Contains(l, "busy   60.0%") {
		t.Fatalf("disk busy: %q, want 60s of 100s", l)
	}
}

func TestTimelineRendering(t *testing.T) {
	tl := Timeline(sampleEvents(), secs(100), 10)
	lines := strings.Split(strings.TrimRight(tl, "\n"), "\n")
	if len(lines) != 3 { // disk0, tape:R, axis
		t.Fatalf("timeline:\n%s", tl)
	}
	// disk0: write covers cells 1-2, read covers 6-9.
	disk := lines[0]
	if !strings.HasPrefix(disk, "disk0") {
		t.Fatalf("first row = %q", disk)
	}
	body := disk[strings.Index(disk, "|")+1 : strings.LastIndex(disk, "|")]
	if len(body) != 10 {
		t.Fatalf("row width = %d", len(body))
	}
	if body[0] != '.' || body[1] != 'w' || body[2] != 'w' || body[7] != 'r' || body[9] != 'r' {
		t.Fatalf("disk row = %q", body)
	}
	// tape:R: read covers cells 0-3, seek cell 4, idle after.
	tapeRow := lines[1]
	tBody := tapeRow[strings.Index(tapeRow, "|")+1 : strings.LastIndex(tapeRow, "|")]
	if tBody[0] != 'r' || tBody[3] != 'r' || tBody[4] != 's' || tBody[9] != '.' {
		t.Fatalf("tape row = %q", tBody)
	}
}

func TestTimelineCellDominance(t *testing.T) {
	// A cell containing 7s of read and 3s of write renders as read.
	tl := Timeline([]Event{
		{Device: "d", Kind: DiskRead, Start: 0, End: secs(7)},
		{Device: "d", Kind: DiskWrite, Start: secs(7), End: secs(10)},
	}, secs(10), 1)
	if !strings.Contains(tl, "|r|") {
		t.Fatalf("timeline = %q", tl)
	}
}

func TestSummary(t *testing.T) {
	sum := Summary(sampleEvents(), secs(100))
	if !strings.Contains(sum, "tape:R") || !strings.Contains(sum, "tape-read 40s") {
		t.Fatalf("summary:\n%s", sum)
	}
	if !strings.Contains(sum, "50.0%") { // tape busy 50 of 100
		t.Fatalf("summary lacks busy%%:\n%s", sum)
	}
	if !strings.Contains(sum, "disk-write 20s") {
		t.Fatalf("summary:\n%s", sum)
	}
}

func TestKindStringsAndGlyphs(t *testing.T) {
	for k, want := range map[Kind]string{
		TapeRead: "tape-read", TapeWrite: "tape-write", TapeSeek: "tape-seek",
		TapeExchange: "tape-exchange", DiskRead: "disk-read", DiskWrite: "disk-write",
		Fault: "fault", Retry: "retry", Degrade: "degrade", Mark: "mark",
	} {
		if k.String() != want {
			t.Errorf("%d -> %q, want %q", int(k), k.String(), want)
		}
	}
	if TapeExchange.glyph() != 'x' || TapeSeek.glyph() != 's' {
		t.Fatal("glyphs wrong")
	}
}

func TestEmptyTimelineEdgeCases(t *testing.T) {
	if Timeline(nil, secs(10), 10) != "" {
		t.Fatal("no events should render empty")
	}
	events := []Event{{Device: "d", Kind: DiskRead, Start: 0, End: secs(1)}}
	if Timeline(events, 0, 10) != "" || Timeline(events, secs(10), 0) != "" {
		t.Fatal("degenerate dimensions should render empty")
	}
}

// faultedEvents reproduces a recovery run's event shapes: a fault
// marker (instantaneous), a retry interval overlapping the re-read it
// issues, a phase mark, and an event running past the render window.
func faultedEvents() []Event {
	return []Event{
		{Device: "tape:R", Kind: TapeRead, Start: 0, End: secs(40), Blocks: 40},
		{Device: "tape:R", Kind: Fault, Start: secs(40), End: secs(40), Note: "transient"},
		{Device: "tape:R", Kind: Retry, Start: secs(40), End: secs(52)},
		{Device: "tape:R", Kind: TapeRead, Start: secs(48), End: secs(52), Blocks: 4},
		{Device: "disk0", Kind: DiskWrite, Start: secs(10), End: secs(30), Blocks: 20},
		{Device: "disk0", Kind: DiskRead, Start: secs(95), End: secs(110), Blocks: 15},
		{Device: "-", Kind: Mark, Start: secs(52), End: secs(52), Note: "step I done"},
	}
}

func TestTimelineGolden(t *testing.T) {
	want := "" +
		"disk0  |..wwww.............r|\n" +
		"tape:R |rrrrrrrr~~~.........|\n" +
		"        0               1m40s\n"
	if got := Timeline(faultedEvents(), secs(100), 20); got != want {
		t.Fatalf("timeline:\n%swant:\n%s", got, want)
	}
}

func TestSummaryGolden(t *testing.T) {
	want := "" +
		"disk0    busy   35.0%  disk-read 15s  disk-write 20s\n" +
		"tape:R   busy   52.0%  tape-read 44s  fault 0s  retry 12s\n"
	if got := Summary(faultedEvents(), secs(100)); got != want {
		t.Fatalf("summary:\n%swant:\n%s", got, want)
	}
}

func TestBusyTimeMergesOverlap(t *testing.T) {
	// tape:R: read 0-40s, retry 40-52s, re-read 48-52s. Naive summing
	// gives 56s; the merged interval [0, 52] is the truth.
	if l := busyLine(t, faultedEvents(), "tape:R"); !strings.Contains(l, "busy   52.0%") {
		t.Fatalf("tape:R: %q, want 52s busy", l)
	}
	// Identical duplicated intervals collapse entirely.
	dup := []Event{
		{Device: "d", Kind: DiskRead, Start: 0, End: secs(10)},
		{Device: "d", Kind: DiskRead, Start: 0, End: secs(10)},
	}
	if l := busyLine(t, dup, "d"); !strings.Contains(l, "busy   10.0%") {
		t.Fatalf("duplicate: %q, want 10s busy", l)
	}
	// An interval containing another contributes only its own length.
	nested := []Event{
		{Device: "d", Kind: Retry, Start: 0, End: secs(20)},
		{Device: "d", Kind: DiskRead, Start: secs(5), End: secs(10)},
	}
	if l := busyLine(t, nested, "d"); !strings.Contains(l, "busy   20.0%") {
		t.Fatalf("nested: %q, want 20s busy", l)
	}
}

func TestTimelineInstantAndOverrun(t *testing.T) {
	// A zero-duration event renders a one-cell glyph, and its full-cell
	// weight beats partial occupants of the same cell.
	tl := Timeline([]Event{
		{Device: "d", Kind: DiskRead, Start: 0, End: secs(2)},
		{Device: "d", Kind: Fault, Start: secs(3), End: secs(3)},
	}, secs(10), 2) // cells of 5s: read covers 2s of cell 0
	if !strings.Contains(tl, "|!.|") {
		t.Fatalf("instant fault should win its cell:\n%s", tl)
	}
	// An event entirely past end clamps into the last cell instead of
	// being dropped.
	tl = Timeline([]Event{
		{Device: "d", Kind: DiskWrite, Start: 0, End: secs(1)},
		{Device: "d", Kind: DiskRead, Start: secs(12), End: secs(15)},
	}, secs(10), 2)
	if !strings.Contains(tl, "|wr|") {
		t.Fatalf("past-end event should clamp into last cell:\n%s", tl)
	}
}

func TestTrackerRecordStampsActiveSpan(t *testing.T) {
	tr := NewTracker()
	k := sim.NewKernel()
	k.Spawn("worker", func(p *sim.Proc) {
		tr.Record(p, Event{Device: "d", Kind: DiskRead})
		s := tr.Begin(p, "phase")
		tr.Record(p, Event{Device: "d", Kind: DiskRead})
		tr.Record(p, Event{Device: "d", Kind: DiskWrite, Span: 99})
		s.Close(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	ev := tr.Events()
	if len(ev) != 3 || ev[0].Span != 0 || ev[1].Span != tr.Spans()[0].ID || ev[2].Span != 99 {
		t.Fatalf("events = %+v", ev)
	}
}
