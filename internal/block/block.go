// Package block defines the unit of storage accounting and transfer in
// the tertiary join system: the paper block.
//
// All device space and bandwidth accounting is done in paper blocks of
// VirtualSize bytes (64 KB), matching the transfer-only cost model of
// the paper. The number of real tuples carried per block is a density
// knob (relation.Config.TuplesPerBlock): experiments at paper scale use
// sparse blocks so a simulated 10 GB relation moves megabytes of real
// tuple data, while correctness tests use dense blocks. Density never
// changes timing — timing depends only on block counts.
package block

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// VirtualSize is the size of one paper block in bytes. Device transfer
// times are computed from virtual bytes = blocks * VirtualSize.
const VirtualSize = 64 * 1024

// Tuple is a relation tuple: a 64-bit join key plus an opaque payload.
type Tuple struct {
	Key     uint64
	Payload []byte
}

// maxPayload bounds payload length so it encodes in a uint16.
const maxPayload = 1<<16 - 1

// Block is an encoded block: a header followed by packed tuples. It is
// what the simulated devices store and move.
type Block []byte

// Encoding layout:
//
//	[0:2)   magic "TB"
//	[2:3)   version (1)
//	[3:4)   relation tag
//	[4:8)   tuple count, little endian
//	[8:12)  crc32 (IEEE) of the body
//	[12:)   body: per tuple key(8) payloadLen(2) payload
const (
	headerSize = 12
	magic0     = 'T'
	magic1     = 'B'
	version    = 1
)

// Builder accumulates tuples and encodes them into a Block.
type Builder struct {
	tag  byte
	body []byte
	n    uint32
}

// NewBuilder returns a builder for blocks of the relation identified by
// tag.
func NewBuilder(tag byte) *Builder {
	return &Builder{tag: tag}
}

// Append adds a tuple to the block under construction.
func (b *Builder) Append(t Tuple) {
	if len(t.Payload) > maxPayload {
		panic(fmt.Sprintf("block: payload %d bytes exceeds max %d", len(t.Payload), maxPayload))
	}
	var kb [10]byte
	binary.LittleEndian.PutUint64(kb[0:8], t.Key)
	binary.LittleEndian.PutUint16(kb[8:10], uint16(len(t.Payload)))
	b.body = append(b.body, kb[:]...)
	b.body = append(b.body, t.Payload...)
	b.n++
}

// Len reports the number of tuples appended so far.
func (b *Builder) Len() int { return int(b.n) }

// Finish encodes the accumulated tuples into a Block and resets the
// builder for reuse.
func (b *Builder) Finish() Block {
	out := make([]byte, headerSize+len(b.body))
	out[0], out[1], out[2], out[3] = magic0, magic1, version, b.tag
	binary.LittleEndian.PutUint32(out[4:8], b.n)
	binary.LittleEndian.PutUint32(out[8:12], crc32.ChecksumIEEE(b.body))
	copy(out[headerSize:], b.body)
	b.body = b.body[:0]
	b.n = 0
	return out
}

// Errors returned by Decode.
var (
	ErrBadMagic    = errors.New("block: bad magic")
	ErrBadVersion  = errors.New("block: unsupported version")
	ErrBadChecksum = errors.New("block: checksum mismatch")
	ErrTruncated   = errors.New("block: truncated")
)

// Tag returns the relation tag without fully decoding the block.
func (blk Block) Tag() (byte, error) {
	if len(blk) < headerSize {
		return 0, ErrTruncated
	}
	if blk[0] != magic0 || blk[1] != magic1 {
		return 0, ErrBadMagic
	}
	return blk[3], nil
}

// header checks the block's structure and returns its tag, tuple
// count and body. It does not check the body checksum.
func (blk Block) header() (tag byte, n uint32, body []byte, err error) {
	if len(blk) < headerSize {
		return 0, 0, nil, ErrTruncated
	}
	if blk[0] != magic0 || blk[1] != magic1 {
		return 0, 0, nil, ErrBadMagic
	}
	if blk[2] != version {
		return 0, 0, nil, fmt.Errorf("%w: %d", ErrBadVersion, blk[2])
	}
	return blk[3], binary.LittleEndian.Uint32(blk[4:8]), blk[headerSize:], nil
}

// Decode unpacks a block into its tuples, verifying the checksum.
// Payload slices alias the block's storage; callers that retain tuples
// past the block's lifetime must copy. It allocates the tuple slice;
// hot paths walk blocks with Iter instead.
func (blk Block) Decode() (tag byte, tuples []Tuple, err error) {
	if err := blk.Verify(); err != nil {
		return 0, nil, err
	}
	tag, n, _, _ := blk.header()
	tuples = make([]Tuple, 0, n)
	it := Tuples([]Block{blk})
	for it.Next() {
		tuples = append(tuples, it.Tuple())
	}
	if err := it.Err(); err != nil {
		return 0, nil, err
	}
	return tag, tuples, nil
}

// Verify checks the header and body checksum without building tuples.
// It is the one integrity check of a block read on the simulated
// devices, which run it on every block they deliver.
func (blk Block) Verify() error {
	_, _, body, err := blk.header()
	if err != nil {
		return err
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(blk[8:12]) {
		return ErrBadChecksum
	}
	return nil
}

// VerifyAll verifies every block of a delivered read, naming the first
// bad one.
func VerifyAll(blks []Block) error {
	for i, blk := range blks {
		if err := blk.Verify(); err != nil {
			return fmt.Errorf("block %d of read: %w", i, err)
		}
	}
	return nil
}

// Iter walks the tuples of a run of blocks in order without
// allocating. It checks structure only — magic, version and that every
// tuple lies inside its block — not the checksum: its blocks must have
// been verified where a device delivered them, or built in memory.
// Tuple payloads alias block storage. Use it as
//
//	it := block.Tuples(blks)
//	for it.Next() {
//		t := it.Tuple()
//		...
//	}
//	if err := it.Err(); err != nil { ... }
type Iter struct {
	blks []Block
	body []byte // unread rest of the current block's body
	left uint32 // tuples left in the current block
	t    Tuple
	err  error
}

// Tuples returns an iterator over the tuples of blks.
func Tuples(blks []Block) Iter { return Iter{blks: blks} }

// Next advances to the next tuple, reporting false at the end of the
// run or on a malformed block (see Err).
func (it *Iter) Next() bool {
	for it.left == 0 {
		if len(it.body) != 0 {
			it.err = fmt.Errorf("%w: %d trailing bytes", ErrTruncated, len(it.body))
		}
		if it.err != nil || len(it.blks) == 0 {
			return false
		}
		_, it.left, it.body, it.err = it.blks[0].header()
		it.blks = it.blks[1:]
	}
	body := it.body
	if len(body) < 10 {
		it.err = ErrTruncated
		return false
	}
	plen := int(binary.LittleEndian.Uint16(body[8:10]))
	if 10+plen > len(body) {
		it.err = ErrTruncated
		return false
	}
	it.t = Tuple{Key: binary.LittleEndian.Uint64(body[0:8]), Payload: body[10 : 10+plen : 10+plen]}
	it.body = body[10+plen:]
	it.left--
	return true
}

// Tuple returns the current tuple.
func (it *Iter) Tuple() Tuple { return it.t }

// Err returns the structural error that stopped the walk, or nil.
func (it *Iter) Err() error { return it.err }

// MustDecode decodes and panics on corruption. Used internally by join
// operators where a decode failure indicates a simulator bug, not an
// input condition.
func (blk Block) MustDecode() (byte, []Tuple) {
	tag, tuples, err := blk.Decode()
	if err != nil {
		panic(err)
	}
	return tag, tuples
}
