package store

// The record log under every durable backend: the frame and op codec,
// replay with torn-tail repair, the append/fsync/rollback sequence and
// the atomic file replace. store.WAL and store/disk differ only in the
// magic they pass in. Format and rules: docs/STORAGE.md, "Record log".

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

const (
	opPut    = 1
	opDelete = 2

	// FrameHeader is payloadLen u32 LE | crc32(IEEE, payload) u32 LE.
	FrameHeader = 8
)

// ErrCorrupt wraps every decode failure in a store file. Open returns it
// for an unreadable header; a torn log tail is repaired silently.
var ErrCorrupt = errors.New("store: corrupt file")

// Op is one write of a batch; a nil Value is a delete (a put's value is
// never nil, only possibly empty).
type Op struct {
	Key   string
	Value []byte
}

// ApplyTo performs op on m: a delete removes the key.
func (op Op) ApplyTo(m map[string][]byte) {
	if op.Value == nil {
		delete(m, op.Key)
	} else {
		m[op.Key] = op.Value
	}
}

// Checksum is the CRC every frame and trailer carries.
func Checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// Frame appends payload to dst wrapped in the length+checksum frame.
func Frame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, Checksum(payload))
	return append(dst, payload...)
}

// ReadFrame verifies the frame starting at b[off:] and returns its
// payload (aliasing b) and the offset just past it.
func ReadFrame(b []byte, off int64) (payload []byte, next int64, err error) {
	if off < 0 || int64(len(b))-off < FrameHeader {
		return nil, 0, fmt.Errorf("%w: truncated frame header", ErrCorrupt)
	}
	n := int64(binary.LittleEndian.Uint32(b[off:]))
	want := binary.LittleEndian.Uint32(b[off+4:])
	start := off + FrameHeader
	if n > int64(len(b))-start {
		return nil, 0, fmt.Errorf("%w: frame overruns file", ErrCorrupt)
	}
	payload = b[start : start+n]
	if Checksum(payload) != want {
		return nil, 0, fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt)
	}
	return payload, start + n, nil
}

// AppendField appends one length-prefixed field.
func AppendField[T string | []byte](buf []byte, b T) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// DecodeField decodes one length-prefixed field (aliasing b).
func DecodeField(b []byte) (field, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("%w: short field", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) < n {
		return nil, nil, fmt.Errorf("%w: field overruns payload", ErrCorrupt)
	}
	return b[:n], b[n:], nil
}

// EncodeOps appends the op codec image of ops: op u8 | key field, and
// for a put the value field.
func EncodeOps(buf []byte, ops ...Op) []byte {
	for _, op := range ops {
		if op.Value == nil {
			buf = AppendField(append(buf, opDelete), op.Key)
			continue
		}
		buf = AppendField(append(buf, opPut), op.Key)
		buf = AppendField(buf, op.Value)
	}
	return buf
}

// DecodeOp decodes the op at the front of b (its value aliases b).
func DecodeOp(b []byte) (op Op, rest []byte, err error) {
	if len(b) == 0 {
		return Op{}, nil, fmt.Errorf("%w: empty op", ErrCorrupt)
	}
	key, rest, err := DecodeField(b[1:])
	if err != nil {
		return Op{}, nil, err
	}
	op.Key = string(key)
	switch b[0] {
	case opPut:
		if op.Value, rest, err = DecodeField(rest); err != nil {
			return Op{}, nil, err
		}
	case opDelete:
	default:
		return Op{}, nil, fmt.Errorf("%w: unknown op %d", ErrCorrupt, b[0])
	}
	return op, rest, nil
}

// DecodeOps decodes a whole payload; it must be consumed exactly.
func DecodeOps(payload []byte) ([]Op, error) {
	var ops []Op
	for len(payload) > 0 {
		op, rest, err := DecodeOp(payload)
		if err != nil {
			return nil, err
		}
		ops, payload = append(ops, op), rest
	}
	return ops, nil
}

// logFile is what the log needs of its *os.File; tests substitute a
// failing one.
type logFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Log is an append-only file of framed batches behind an 8-byte magic.
// It is not safe for concurrent use: the owning backend's lock guards it.
type Log struct {
	f     logFile
	path  string
	magic string
	sync  bool
	size  int64
	// err poisons the log once the file's tail is in an unknown state;
	// every later Append, Reset and Rewrite returns it.
	err error
}

// OpenLog opens (or creates) the log at path, hands every committed
// batch to apply in file order, and cuts a torn tail off. With sync set
// every Append is fsynced before it returns.
func OpenLog(path, magic string, sync bool, apply func([]Op)) (*Log, error) {
	l := &Log{path: path, magic: magic, sync: sync}
	f, err := l.open()
	if err != nil {
		return nil, err
	}
	data := make([]byte, l.size)
	if _, err = io.ReadFull(f, data); err != nil {
		err = fmt.Errorf("store: reading log %s: %w", path, err)
	} else {
		err = l.replay(data, apply)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// open (re)opens the file at l.path in append mode, so every write lands
// at the end whatever a rollback truncated, and sets l.f and l.size.
func (l *Log) open() (*os.File, error) {
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening log: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: stat log: %w", err)
	}
	l.f, l.size = f, info.Size()
	return f, nil
}

// replay applies every whole record of data. A record is applied only if
// its frame verifies and its payload decodes completely; the first one
// that does not is the torn tail and is truncated away with everything
// after it.
func (l *Log) replay(data []byte, apply func([]Op)) error {
	if len(data) == 0 {
		if _, err := l.f.Write([]byte(l.magic)); err != nil {
			return fmt.Errorf("store: writing log header: %w", err)
		}
		l.size = int64(len(l.magic))
		return l.fsync()
	}
	if !bytes.HasPrefix(data, []byte(l.magic)) {
		return fmt.Errorf("%w: bad header in %s", ErrCorrupt, l.path)
	}
	valid := int64(len(l.magic))
	for {
		payload, next, err := ReadFrame(data, valid)
		if err != nil {
			break
		}
		ops, err := DecodeOps(payload)
		if err != nil {
			break
		}
		for i := range ops {
			ops[i].Value = bytes.Clone(ops[i].Value) // let data go
		}
		apply(ops)
		valid = next
	}
	if valid < l.size {
		return l.truncate(valid)
	}
	return nil
}

// Size returns the log's length in bytes.
func (l *Log) Size() int64 { return l.size }

// fsync is the one place the log's data file is synced.
func (l *Log) fsync() error {
	if !l.sync {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("store: fsync %s: %w", l.path, err)
	}
	return nil
}

// truncate is the one place the log shrinks. If it fails the file may
// end in bytes no record accounts for, so the log is poisoned rather
// than appended to.
func (l *Log) truncate(size int64) error {
	if err := l.f.Truncate(size); err != nil {
		l.err = fmt.Errorf("store: log %s unusable: truncate: %w", l.path, err)
		return l.err
	}
	l.size = size
	return nil
}

// Append commits ops as one record: one Write, one fsync. If either
// fails the record is rolled back — a batch reported as failed must not
// resurface on restart, and later records must not land after a tear.
func (l *Log) Append(ops []Op) error {
	if l.err != nil {
		return l.err
	}
	rec := Frame(nil, EncodeOps(nil, ops...))
	_, err := l.f.Write(rec)
	if err == nil {
		err = l.fsync()
	}
	if err != nil {
		if rerr := l.truncate(l.size); rerr != nil {
			return fmt.Errorf("%w (rolling back: %v)", rerr, err)
		}
		return fmt.Errorf("store: appending log record: %w", err)
	}
	l.size += int64(len(rec))
	return nil
}

// Reset empties the log down to its header.
func (l *Log) Reset() error {
	if l.err != nil {
		return l.err
	}
	if err := l.truncate(int64(len(l.magic))); err != nil {
		return err
	}
	return l.fsync()
}

// Rewrite atomically replaces the log with one holding ops as a single
// record, then reopens whatever the path now names — the old handle may
// point at an unlinked file, so failing to reopen poisons the log.
func (l *Log) Rewrite(ops []Op) error {
	if l.err != nil {
		return l.err
	}
	img := []byte(l.magic)
	if len(ops) > 0 {
		img = Frame(img, EncodeOps(nil, ops...))
	}
	err := AtomicReplace(l.path, img, l.sync)
	old := l.f
	if _, oerr := l.open(); oerr != nil {
		l.err = fmt.Errorf("store: log %s unusable: %w", l.path, oerr)
		return l.err
	}
	old.Close()
	return err
}

// Close syncs and closes the file.
func (l *Log) Close() error {
	err := l.fsync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// fsyncDir makes a rename in dir durable; a variable so tests can fail it.
var fsyncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening dir for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: fsync dir %s: %w", dir, err)
	}
	return nil
}

// AtomicReplace makes path hold exactly data in one step: write a temp
// file, fsync it, rename it over path and, when sync is set, fsync the
// directory — without that a power failure can roll the rename back. A
// crash leaves the old file or the new one, plus at most a stray ".tmp".
func AtomicReplace(path string, data []byte, sync bool) error {
	tmp := path + ".tmp"
	err := writeFileSync(tmp, data)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: replacing %s: %w", filepath.Base(path), err)
	}
	if !sync {
		return nil
	}
	return fsyncDir(filepath.Dir(path))
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
