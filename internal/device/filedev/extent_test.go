package filedev

// The extent path: a request's frames move in one positioned syscall
// per run of file-adjacent frames, and every frame read is checked
// against the index — header and payload — wherever damage lands.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/device/faultfile"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/tape"
)

// countFile counts the positioned syscalls reaching the OS file.
type countFile struct {
	*os.File
	reads, writes atomic.Int64
}

func (c *countFile) ReadAt(p []byte, off int64) (int, error) {
	c.reads.Add(1)
	return c.File.ReadAt(p, off)
}

func (c *countFile) WriteAt(p []byte, off int64) (int, error) {
	c.writes.Add(1)
	return c.File.WriteAt(p, off)
}

// newCountedRec builds a record file whose syscalls are counted.
func newCountedRec(tb testing.TB) (*recFile, *countFile) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "rec.dat")
	r, err := New("").createRecFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	r.f.Load().Close()
	osf, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		tb.Fatal(err)
	}
	cf := &countFile{File: osf}
	r.f.Store(faultfile.Wrap(cf))
	tb.Cleanup(func() { r.close() })
	return r, cf
}

// rawBlocks returns blocks of the given byte sizes with distinct
// contents. The record file frames bytes and never decodes them.
func rawBlocks(sizes ...int) []block.Block {
	out := make([]block.Block, len(sizes))
	for i, n := range sizes {
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(i*31 + j)
		}
		out[i] = b
	}
	return out
}

// readRecs plans, executes and assembles a read of [off, off+n).
func readRecs(r *recFile, off, n int64) ([]block.Block, error) {
	pl, err := r.planRead(off, n)
	if err != nil {
		return nil, err
	}
	if err := r.execReads(pl); err != nil {
		return nil, err
	}
	return assemble(pl), nil
}

func sameBlocks(t *testing.T, got, want []block.Block) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("read %d blocks, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("block %d differs", i)
		}
	}
}

// TestExtentSyscallsPerRun: a 32-record append is one write and its
// read one read; an overwrite repoints a record to the file's end,
// which splits the read into three runs, and the repointed record
// reads back its new contents.
func TestExtentSyscallsPerRun(t *testing.T) {
	r, cf := newCountedRec(t)
	sizes := make([]int, 32)
	for i := range sizes {
		sizes[i] = 100 + i
	}
	blks := rawBlocks(sizes...)
	if err := r.appendRecords(0, blks); err != nil {
		t.Fatal(err)
	}
	if n := cf.writes.Load(); n != 1 {
		t.Errorf("32-record append: %d writes, want 1", n)
	}
	got, err := readRecs(r, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	sameBlocks(t, got, blks)
	if n := cf.reads.Load(); n != 1 {
		t.Errorf("32-record read: %d reads, want 1", n)
	}

	fresh := rawBlocks(7, 300)
	if err := r.appendRecords(10, fresh); err != nil {
		t.Fatal(err)
	}
	want := append(append(append([]block.Block(nil), blks[:10]...), fresh...), blks[12:]...)
	cf.reads.Store(0)
	got, err = readRecs(r, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	sameBlocks(t, got, want)
	if n := cf.reads.Load(); n != 3 {
		t.Errorf("read across a repointed pair: %d reads, want 3", n)
	}
	// Aliased blocks cannot grow into the next frame.
	if cap(got[0]) != len(got[0]) {
		t.Errorf("block cap %d > len %d: an append would overwrite the next frame", cap(got[0]), len(got[0]))
	}
}

// TestExtentHeaderDamageFailsCorrupt flips every byte of one frame's
// header in the stored file: the length and CRC fields are checked
// against the index, so each flip fails the read with ErrCorrupt while
// the frame's neighbours still read clean.
func TestExtentHeaderDamageFailsCorrupt(t *testing.T) {
	r, cf := newCountedRec(t)
	blks := rawBlocks(40, 40, 40)
	if err := r.appendRecords(0, blks); err != nil {
		t.Fatal(err)
	}
	hdr := r.index[1]
	for i := int64(0); i < recHeader; i++ {
		var b [1]byte
		if _, err := cf.File.ReadAt(b[:], hdr+i); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x01
		if _, err := cf.File.WriteAt(b[:], hdr+i); err != nil {
			t.Fatal(err)
		}
		if _, err := readRecs(r, 0, 3); !errors.Is(err, device.ErrCorrupt) {
			t.Errorf("header byte %d flipped: %v, want device.ErrCorrupt", i, err)
		}
		for _, pos := range []int64{0, 2} {
			if _, err := readRecs(r, pos, 1); err != nil {
				t.Errorf("header byte %d flipped: neighbour %d: %v", i, pos, err)
			}
		}
		b[0] ^= 0x01
		if _, err := cf.File.WriteAt(b[:], hdr+i); err != nil {
			t.Fatal(err)
		}
	}
	got, err := readRecs(r, 0, 3)
	if err != nil {
		t.Fatalf("read after restoring the header: %v", err)
	}
	sameBlocks(t, got, blks)
}

// TestExtentWriteFlipInHeader arms a flip= decision on an extent write
// whose midpoint — where the flip lands — is the second frame's length
// field, then its CRC field. Either way the frame fails with
// ErrCorrupt and the first frame is intact.
func TestExtentWriteFlipInHeader(t *testing.T) {
	for _, c := range []struct {
		name  string
		sizes []int // frame sizes put the extent's midpoint in frame 1's header
		field string
	}{
		{"length", []int{40, 40}, "header length"},
		{"crc", []int{40, 48}, "header crc"},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, _ := newCountedRec(t)
			r.arm(fault.OSDecision{Flip: true})
			blks := rawBlocks(c.sizes...)
			if err := r.appendRecords(0, blks); err != nil {
				t.Fatal(err)
			}
			_, err := readRecs(r, 1, 1)
			if !errors.Is(err, device.ErrCorrupt) || !strings.Contains(err.Error(), c.field) {
				t.Fatalf("read of the flipped frame: %v, want device.ErrCorrupt on the %s", err, c.field)
			}
			got, err := readRecs(r, 0, 1)
			if err != nil {
				t.Fatalf("read of the intact frame: %v", err)
			}
			sameBlocks(t, got, blks[:1])
		})
	}
}

// TestExtentTornWrite tears a four-record extent: only its first half
// reaches the file. Records inside that half read clean; the
// torn ones fail with ErrCorrupt, first as a truncated tail and then,
// once a later append lands past the hole, as zeroed headers.
func TestExtentTornWrite(t *testing.T) {
	r, _ := newCountedRec(t)
	head := rawBlocks(50, 50)
	if err := r.appendRecords(0, head); err != nil {
		t.Fatal(err)
	}
	r.arm(fault.OSDecision{Torn: true})
	torn := rawBlocks(50, 50, 50, 50)
	if err := r.appendRecords(2, torn); err != nil {
		t.Fatalf("torn write must report success: %v", err)
	}
	check := func(stage string) {
		got, err := readRecs(r, 0, 4)
		if err != nil {
			t.Fatalf("%s: read of the intact records: %v", stage, err)
		}
		sameBlocks(t, got, append(append([]block.Block(nil), head...), torn[:2]...))
		for i := int64(4); i < 6; i++ {
			if _, err := readRecs(r, i, 1); !errors.Is(err, device.ErrCorrupt) {
				t.Errorf("%s: read of torn record %d: %v, want device.ErrCorrupt", stage, i, err)
			}
		}
		if _, err := readRecs(r, 0, 6); !errors.Is(err, device.ErrCorrupt) {
			t.Errorf("%s: extent read over torn records: %v, want device.ErrCorrupt", stage, err)
		}
	}
	check("truncated tail")
	if err := r.appendRecords(6, rawBlocks(50)); err != nil {
		t.Fatal(err)
	}
	check("hole")
}

// TestExtentPoisonedMountRecord: a block already bad on the medium is
// poisoned at mount; an extent read that covers it fails with
// ErrCorrupt, and extents that stop short of it read clean.
func TestExtentPoisonedMountRecord(t *testing.T) {
	b := New(t.TempDir())
	k := sim.NewKernel()
	d, err := b.NewDrive(k, "R", device.Ideal())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m := tape.NewMedia("t1", 100)
	if _, err := m.AppendSetup(mkBlocks(1, 32, 0)); err != nil {
		t.Fatal(err)
	}
	m.Corrupt(20)
	d.Load(m)
	run(t, k, func(p *sim.Proc) {
		if _, err := d.ReadAt(p, 0, 32); !errors.Is(err, device.ErrCorrupt) {
			t.Fatalf("extent over a poisoned record: %v, want device.ErrCorrupt", err)
		}
		blks, err := d.ReadAt(p, 0, 20)
		if err != nil || len(blks) != 20 || keyOf(t, blks[19]) != 19 {
			t.Fatalf("extent before the poisoned record: %v", err)
		}
		if blks, err := d.ReadAt(p, 21, 11); err != nil || keyOf(t, blks[0]) != 21 {
			t.Fatalf("extent after the poisoned record: %v", err)
		}
	})
}

// TestExtentReadAllocsFlat: a read's allocations do not grow with the
// records it covers — one buffer, one record table, one block slice.
func TestExtentReadAllocsFlat(t *testing.T) {
	r, _ := newCountedRec(t)
	if err := r.appendRecords(0, mkBlocks(1, 32, 0)); err != nil {
		t.Fatal(err)
	}
	allocs := func(n int64) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := readRecs(r, 0, n); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(32); one != many {
		t.Errorf("read allocations: 1 record %v, 32 records %v; want equal", one, many)
	}
}

// benchExtent runs 32-block framed requests against a counted record
// file and reports the positioned syscalls each request costs.
func benchExtent(b *testing.B, read bool) {
	r, cf := newCountedRec(b)
	blks := mkBlocks(1, 32, 0)
	if err := r.appendRecords(0, blks); err != nil {
		b.Fatal(err)
	}
	cf.reads.Store(0)
	cf.writes.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if read {
			_, err = readRecs(r, 0, 32)
		} else {
			err = r.appendRecords(0, blks)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cf.reads.Load()+cf.writes.Load())/float64(b.N), "syscalls/op")
}

// BenchmarkFramedRead32 reads one 32-block request: plan, positioned
// read, frame checks, assembly.
func BenchmarkFramedRead32(b *testing.B) { benchExtent(b, true) }

// BenchmarkFramedWrite32 writes one 32-block request over the same
// logical positions: plan and encode, positioned write.
func BenchmarkFramedWrite32(b *testing.B) { benchExtent(b, false) }
