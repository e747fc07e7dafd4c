package disk

// Segment files are the immutable sorted runs of the disk backend. A
// segment is written once by a memtable flush (or a compaction merge)
// and never modified; readers locate keys through a sparse index and
// every byte they touch is covered by a CRC, so a torn write, a
// truncated file or a flipped bit surfaces as ErrCorrupt — never as a
// silently wrong value.
//
// File layout (frame and op codec are the record log's, package store;
// see docs/STORAGE.md, "Record log"):
//
//	magic    "TEVMSEG1" (8 bytes)
//	entries  one frame per key, in strictly ascending key order; the
//	         payload is exactly one op (a delete is a tombstone)
//	index    one frame holding every sparseEvery-th entry:
//	         repeated keyLen u32 LE | key | entryOffset u64 LE
//	trailer  indexOff u64 LE | indexLen u32 LE | crc32(first 12 bytes) u32 LE
//
// The encoding is canonical: for any byte image that parses, re-encoding
// the parsed entries reproduces the image bit for bit (FuzzSegmentCodec
// pins this). parseSegment therefore checks everything — magic, every
// frame checksum, strict key order, exact index contents and that the
// regions tile the file with no gaps.

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"

	"tinyevm/internal/store"
)

const (
	segMagic = "TEVMSEG1"

	frameHeader = store.FrameHeader
	trailerLen  = 16

	// sparseEvery is the index granularity: every sparseEvery-th entry
	// is indexed, so a point lookup scans at most sparseEvery frames.
	sparseEvery = 16
)

// ErrCorrupt wraps every decode failure in the disk backend's files; it
// is the store-wide value.
var ErrCorrupt = store.ErrCorrupt

// decodeEntry parses one entry payload: exactly one op.
func decodeEntry(payload []byte) (store.Op, error) {
	op, rest, err := store.DecodeOp(payload)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%w: trailing bytes in entry", ErrCorrupt)
	}
	return op, err
}

// indexEntry is one sparse-index point: the key at a file offset.
type indexEntry struct {
	key string
	off int64
}

// encodeSegment builds a complete segment image from entries in
// strictly ascending key order.
func encodeSegment(entries []store.Op) []byte {
	out := []byte(segMagic)
	var index []indexEntry
	for i := range entries {
		if i%sparseEvery == 0 {
			index = append(index, indexEntry{key: entries[i].Key, off: int64(len(out))})
		}
		out = store.Frame(out, store.EncodeOps(nil, entries[i]))
	}
	indexOff := int64(len(out))
	var ibuf []byte
	for _, ie := range index {
		ibuf = store.AppendField(ibuf, ie.key)
		ibuf = binary.LittleEndian.AppendUint64(ibuf, uint64(ie.off))
	}
	out = store.Frame(out, ibuf)

	var tr [trailerLen]byte
	binary.LittleEndian.PutUint64(tr[0:8], uint64(indexOff))
	binary.LittleEndian.PutUint32(tr[8:12], uint32(int64(len(out))-indexOff))
	binary.LittleEndian.PutUint32(tr[12:16], store.Checksum(tr[0:12]))
	return append(out, tr[:]...)
}

// decodeIndex parses the sparse-index payload.
func decodeIndex(payload []byte) ([]indexEntry, error) {
	var index []indexEntry
	for len(payload) > 0 {
		key, rest, err := store.DecodeField(payload)
		if err != nil {
			return nil, err
		}
		if len(rest) < 8 {
			return nil, fmt.Errorf("%w: truncated index offset", ErrCorrupt)
		}
		off := int64(binary.LittleEndian.Uint64(rest))
		index = append(index, indexEntry{key: string(key), off: off})
		payload = rest[8:]
	}
	return index, nil
}

// parseSegment fully decodes and verifies a segment image: every frame
// checksum, strict key ordering, the trailer, and that the sparse
// index matches the entries exactly. Any deviation is ErrCorrupt.
func parseSegment(b []byte) ([]store.Op, error) {
	if len(b) < len(segMagic)+frameHeader+trailerLen {
		return nil, fmt.Errorf("%w: segment too short", ErrCorrupt)
	}
	if string(b[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	tr := b[len(b)-trailerLen:]
	if store.Checksum(tr[:12]) != binary.LittleEndian.Uint32(tr[12:16]) {
		return nil, fmt.Errorf("%w: trailer checksum mismatch", ErrCorrupt)
	}
	indexOff := int64(binary.LittleEndian.Uint64(tr[0:8]))
	indexLen := int64(binary.LittleEndian.Uint32(tr[8:12]))
	if indexOff < int64(len(segMagic)) || indexOff+indexLen != int64(len(b))-trailerLen {
		return nil, fmt.Errorf("%w: index region out of bounds", ErrCorrupt)
	}
	ipayload, iend, err := store.ReadFrame(b, indexOff)
	if err != nil {
		return nil, err
	}
	if iend != indexOff+indexLen {
		return nil, fmt.Errorf("%w: index frame shorter than region", ErrCorrupt)
	}
	index, err := decodeIndex(ipayload)
	if err != nil {
		return nil, err
	}

	var entries []store.Op
	var want []indexEntry
	off := int64(len(segMagic))
	for off < indexOff {
		payload, next, err := store.ReadFrame(b, off)
		if err != nil {
			return nil, err
		}
		if next > indexOff {
			return nil, fmt.Errorf("%w: entry overruns index region", ErrCorrupt)
		}
		e, err := decodeEntry(payload)
		if err != nil {
			return nil, err
		}
		if len(entries) > 0 && entries[len(entries)-1].Key >= e.Key {
			return nil, fmt.Errorf("%w: entries out of order", ErrCorrupt)
		}
		if len(entries)%sparseEvery == 0 {
			want = append(want, indexEntry{key: e.Key, off: off})
		}
		entries = append(entries, e)
		off = next
	}
	if len(index) != len(want) {
		return nil, fmt.Errorf("%w: index size mismatch", ErrCorrupt)
	}
	for i := range index {
		if index[i] != want[i] {
			return nil, fmt.Errorf("%w: index entry mismatch", ErrCorrupt)
		}
	}
	return entries, nil
}

// segment is one open immutable segment file. The sparse index is held
// in memory; entry frames are read (and checksum-verified) on demand.
type segment struct {
	path    string
	f       *os.File
	size    int64
	dataEnd int64
	index   []indexEntry
}

// openSegment opens a segment file and loads its trailer and sparse
// index (both verified).
func openSegment(path string) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("disk: opening segment: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("disk: stat segment: %w", err)
	}
	size := info.Size()
	fail := func(err error) (*segment, error) {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if size < int64(len(segMagic))+frameHeader+trailerLen {
		return fail(fmt.Errorf("%w: segment too short", ErrCorrupt))
	}
	magic := make([]byte, len(segMagic))
	if _, err := f.ReadAt(magic, 0); err != nil || string(magic) != segMagic {
		return fail(fmt.Errorf("%w: bad segment magic", ErrCorrupt))
	}
	var tr [trailerLen]byte
	if _, err := f.ReadAt(tr[:], size-trailerLen); err != nil {
		return fail(fmt.Errorf("%w: unreadable trailer", ErrCorrupt))
	}
	if store.Checksum(tr[:12]) != binary.LittleEndian.Uint32(tr[12:16]) {
		return fail(fmt.Errorf("%w: trailer checksum mismatch", ErrCorrupt))
	}
	indexOff := int64(binary.LittleEndian.Uint64(tr[0:8]))
	indexLen := int64(binary.LittleEndian.Uint32(tr[8:12]))
	if indexOff < int64(len(segMagic)) || indexOff+indexLen != size-trailerLen {
		return fail(fmt.Errorf("%w: index region out of bounds", ErrCorrupt))
	}
	ibytes := make([]byte, indexLen)
	if _, err := f.ReadAt(ibytes, indexOff); err != nil {
		return fail(fmt.Errorf("%w: unreadable index", ErrCorrupt))
	}
	ipayload, iend, err := store.ReadFrame(ibytes, 0)
	if err != nil {
		return fail(err)
	}
	if iend != indexLen {
		return fail(fmt.Errorf("%w: index frame shorter than region", ErrCorrupt))
	}
	index, err := decodeIndex(ipayload)
	if err != nil {
		return fail(err)
	}
	return &segment{path: path, f: f, size: size, dataEnd: indexOff, index: index}, nil
}

// readEntryAt reads and verifies the entry frame at off, returning the
// entry and the offset just past its frame.
func (s *segment) readEntryAt(off int64) (store.Op, int64, error) {
	fail := func(err error) (store.Op, int64, error) {
		return store.Op{}, 0, fmt.Errorf("%s: %w", s.path, err)
	}
	if off < 0 || s.dataEnd-off < frameHeader {
		return fail(fmt.Errorf("%w: truncated frame header", ErrCorrupt))
	}
	var hdr [frameHeader]byte
	if _, err := s.f.ReadAt(hdr[:], off); err != nil {
		return fail(err)
	}
	n := int64(binary.LittleEndian.Uint32(hdr[:]))
	if n > s.dataEnd-off-frameHeader {
		return fail(fmt.Errorf("%w: frame overruns data region", ErrCorrupt))
	}
	buf := make([]byte, frameHeader+n)
	copy(buf, hdr[:])
	if _, err := s.f.ReadAt(buf[frameHeader:], off+frameHeader); err != nil {
		return fail(err)
	}
	payload, _, err := store.ReadFrame(buf, 0)
	if err != nil {
		return fail(err)
	}
	e, err := decodeEntry(payload)
	if err != nil {
		return fail(err)
	}
	return e, off + int64(len(buf)), nil
}

// get searches the segment for key: binary-search the sparse index,
// then scan at most sparseEvery frames. A found key with a nil value is
// a tombstone.
func (s *segment) get(k string) (val []byte, found bool, err error) {
	i := sort.Search(len(s.index), func(i int) bool { return s.index[i].key > k }) - 1
	if i < 0 {
		return nil, false, nil
	}
	off := s.index[i].off
	for n := 0; n < sparseEvery && off < s.dataEnd; n++ {
		e, next, err := s.readEntryAt(off)
		if err != nil || e.Key > k {
			return nil, false, err
		}
		if e.Key == k {
			return e.Value, true, nil
		}
		off = next
	}
	return nil, false, nil
}

// all reads and fully verifies every entry of the segment — the path
// used by Iterate and compaction merges.
func (s *segment) all() ([]store.Op, error) {
	b, err := os.ReadFile(s.path)
	if err != nil {
		return nil, fmt.Errorf("disk: reading segment: %w", err)
	}
	entries, err := parseSegment(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.path, err)
	}
	return entries, nil
}
