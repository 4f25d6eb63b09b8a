package tapejoin

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestFileRunWallFiguresAreRunScoped runs eight file-backend joins on
// one System. Each run's wall figures — Stats.WallOverlap and the
// registry's per-device busy gauges — must describe that run alone:
// the time at least one device was busy, busy·(1−overlap), fits inside
// the run's own WallElapsed. Figures read over the backend's lifetime
// grow with every run served and soon exceed it.
func TestFileRunWallFiguresAreRunScoped(t *testing.T) {
	sys, err := NewSystem(Config{
		MemoryMB: 2, DiskMB: 64, Backend: "file", BackendDir: t.TempDir(),
		FileSync: "none", Observe: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	tR, err := sys.NewTape("R-tape", 64)
	if err != nil {
		t.Fatal(err)
	}
	tS, err := sys.NewTape("S-tape", 64)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.CreateRelation(tR, RelationConfig{Name: "R", SizeMB: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sys.CreateRelation(tS, RelationConfig{Name: "S", SizeMB: 32, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		res, err := sys.Join(DTGH, r, s)
		if err != nil {
			t.Fatal(err)
		}
		busy, overlap := wallGauges(t, res.Report.MetricsText())
		if overlap != res.Stats.WallOverlap {
			t.Errorf("run %d: overlap gauge %v, Stats.WallOverlap %v", i, overlap, res.Stats.WallOverlap)
		}
		union := time.Duration(busy * (1 - overlap) * float64(time.Second))
		if busy <= 0 || union > res.Stats.WallElapsed {
			t.Errorf("run %d: devices busy %v (busy %.6fs, overlap %.3f) in a run of %v",
				i, union, busy, overlap, res.Stats.WallElapsed)
		}
	}
}

// wallGauges sums the iodev_wall_busy_seconds series of a Prometheus
// exposition and returns it with the overlap fraction.
func wallGauges(t *testing.T, text string) (busy, overlap float64) {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		var sum *float64
		switch {
		case strings.HasPrefix(name, "iodev_wall_busy_seconds{"):
			sum = &busy
		case name == "iodev_wall_overlap_fraction":
			sum = &overlap
		default:
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		*sum += v
	}
	return busy, overlap
}
