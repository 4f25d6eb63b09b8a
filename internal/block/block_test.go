package block

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	b := NewBuilder(7)
	in := []Tuple{
		{Key: 1, Payload: []byte("alpha")},
		{Key: 2, Payload: nil},
		{Key: 1 << 63, Payload: []byte{0, 1, 2, 255}},
	}
	for _, tp := range in {
		b.Append(tp)
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	blk := b.Finish()
	tag, out, err := blk.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if tag != 7 {
		t.Fatalf("tag = %d, want 7", tag)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d tuples, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Key != in[i].Key || !bytes.Equal(out[i].Payload, in[i].Payload) {
			t.Fatalf("tuple %d: got %+v want %+v", i, out[i], in[i])
		}
	}
}

func TestBuilderResetsAfterFinish(t *testing.T) {
	b := NewBuilder(1)
	b.Append(Tuple{Key: 1})
	b.Finish()
	if b.Len() != 0 {
		t.Fatalf("Len after Finish = %d, want 0", b.Len())
	}
	blk := b.Finish()
	_, tuples, err := blk.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 0 {
		t.Fatalf("empty block decoded %d tuples", len(tuples))
	}
}

func TestTag(t *testing.T) {
	b := NewBuilder(42)
	b.Append(Tuple{Key: 9})
	blk := b.Finish()
	tag, err := blk.Tag()
	if err != nil || tag != 42 {
		t.Fatalf("Tag = %d, %v", tag, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	b := NewBuilder(1)
	b.Append(Tuple{Key: 5, Payload: []byte("hello")})
	blk := b.Finish()

	t.Run("truncated header", func(t *testing.T) {
		if _, _, err := Block(blk[:4]).Decode(); err == nil {
			t.Fatal("want error")
		}
		if _, err := Block(blk[:4]).Tag(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append(Block(nil), blk...)
		bad[0] = 'X'
		if _, _, err := bad.Decode(); err != ErrBadMagic {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append(Block(nil), blk...)
		bad[2] = 99
		if _, _, err := bad.Decode(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("corrupt body", func(t *testing.T) {
		bad := append(Block(nil), blk...)
		bad[len(bad)-1] ^= 0xff
		if _, _, err := bad.Decode(); err != ErrBadChecksum {
			t.Fatalf("err = %v, want ErrBadChecksum", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		bad := append(Block(nil), blk[:len(blk)-2]...)
		if _, _, err := bad.Decode(); err == nil {
			t.Fatal("want error")
		}
	})
}

func TestMustDecodePanicsOnCorruption(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Block([]byte{1, 2, 3}).MustDecode()
}

func TestOversizePayloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(1).Append(Tuple{Payload: make([]byte, maxPayload+1)})
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(keys []uint64, payloads [][]byte, tag byte) bool {
		b := NewBuilder(tag)
		n := len(keys)
		if len(payloads) < n {
			n = len(payloads)
		}
		want := make([]Tuple, 0, n)
		for i := 0; i < n; i++ {
			p := payloads[i]
			if len(p) > 1024 {
				p = p[:1024]
			}
			tp := Tuple{Key: keys[i], Payload: p}
			want = append(want, tp)
			b.Append(tp)
		}
		gotTag, got, err := b.Finish().Decode()
		if err != nil || gotTag != tag || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Key != want[i].Key || !bytes.Equal(got[i].Payload, want[i].Payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func buildRun(blocks, perBlock int) []Block {
	out := make([]Block, 0, blocks)
	b := NewBuilder(3)
	for i := 0; i < blocks; i++ {
		for j := 0; j < perBlock; j++ {
			b.Append(Tuple{Key: uint64(i*perBlock + j), Payload: []byte{byte(i), byte(j), 7}})
		}
		out = append(out, b.Finish())
	}
	return out
}

func TestIterWalksRunInOrder(t *testing.T) {
	run := buildRun(5, 3)
	run = append(run[:2:2], append([]Block{NewBuilder(3).Finish()}, run[2:]...)...) // an empty block mid-run
	it := Tuples(run)
	var keys []uint64
	for it.Next() {
		tp := it.Tuple()
		keys = append(keys, tp.Key)
		if len(tp.Payload) != 3 || tp.Payload[2] != 7 {
			t.Fatalf("tuple %d payload %v", tp.Key, tp.Payload)
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 15 {
		t.Fatalf("walked %d tuples, want 15", len(keys))
	}
	for i, k := range keys {
		if k != uint64(i) {
			t.Fatalf("tuple %d has key %d", i, k)
		}
	}
	if it.Next() {
		t.Fatal("Next after the end reported a tuple")
	}
}

// TestIterChecksStructureNotChecksum: the iterator's precondition is a
// block verified at the device boundary (or built in memory), so it
// rejects malformed structure but does not recompute the checksum.
func TestIterChecksStructureNotChecksum(t *testing.T) {
	blk := buildRun(1, 2)[0]
	walk := func(b Block) (int, error) {
		it := Tuples([]Block{b})
		n := 0
		for it.Next() {
			n++
		}
		return n, it.Err()
	}
	flipped := append(Block(nil), blk...)
	flipped[len(flipped)-1] ^= 0xff
	if n, err := walk(flipped); err != nil || n != 2 {
		t.Fatalf("payload flip: %d tuples, %v; want 2 and no error", n, err)
	}
	badMagic := append(Block(nil), blk...)
	badMagic[1] = 'X'
	if _, err := walk(badMagic); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	if _, err := walk(blk[:len(blk)-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short body: %v", err)
	}
	if _, err := walk(append(append(Block(nil), blk...), 0)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("trailing byte: %v", err)
	}
	if _, err := walk(blk[:5]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header: %v", err)
	}
}

func TestVerifyAllNamesBadBlock(t *testing.T) {
	run := buildRun(4, 2)
	if err := VerifyAll(run); err != nil {
		t.Fatal(err)
	}
	bad := append(Block(nil), run[2]...)
	bad[len(bad)-1] ^= 1
	run[2] = bad
	err := VerifyAll(run)
	if !errors.Is(err, ErrBadChecksum) || !strings.Contains(err.Error(), "block 2 of read") {
		t.Fatalf("err = %v, want block 2's checksum error", err)
	}
}

func TestIterZeroAlloc(t *testing.T) {
	run := buildRun(8, 4)
	var sum uint64
	allocs := testing.AllocsPerRun(100, func() {
		it := Tuples(run)
		for it.Next() {
			sum += it.Tuple().Key
		}
	})
	if allocs != 0 {
		t.Fatalf("iterating a block run: %v allocs per run, want 0", allocs)
	}
}

var sink uint64

func BenchmarkIter(b *testing.B) {
	run := buildRun(32, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := Tuples(run)
		for it.Next() {
			sink += it.Tuple().Key
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	run := buildRun(32, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyAll(run); err != nil {
			b.Fatal(err)
		}
	}
}
