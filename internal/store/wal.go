package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// WAL is the flat durable KVStore: the shared record log (log.go; format
// in docs/STORAGE.md, "Record log") plus the full live map in memory —
// TinyEVM states are small. Every committed batch is one log record, so
// a commit is crash-atomic.
//
// Compaction rewrites the live map as a single record and atomically
// replaces the file; it runs on Open when the log carries substantially
// more dead weight than live data.
type WAL struct {
	mu  sync.Mutex
	log *Log

	index map[string][]byte
	// liveBytes estimates the payload bytes a compacted log would hold,
	// driving auto-compaction.
	liveBytes int64

	// sync controls fsync-per-commit (on by default: a committed batch
	// survives power loss, not just process death).
	sync   bool
	closed bool
}

const (
	walMagic = "TEVMWAL1"

	// compactMinSize and CompactFactor gate auto-compaction on Open:
	// only logs past the minimum size whose length exceeds factor x the
	// live payload are rewritten.
	compactMinSize = 1 << 20
)

// CompactFactor is how many dead copies a record log may carry per live
// byte before a backend rewrites it: the flat backend compacts on Open
// past CompactFactor x its live payload, the disk backend flushes
// (which resets its log) past CompactFactor x its memtable threshold.
const CompactFactor = 4

// WALOption configures OpenWAL.
type WALOption func(*WAL)

// WithNoSync disables fsync on commit: committed batches survive a
// process crash (the OS holds the pages) but may be lost on power
// failure. Useful for tests and throwaway runs.
func WithNoSync() WALOption {
	return func(w *WAL) { w.sync = false }
}

// OpenWAL opens (or creates) the write-ahead log at path, replays it
// into memory, repairs a torn tail, and compacts the file when it
// carries mostly dead weight.
func OpenWAL(path string, opts ...WALOption) (*WAL, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating wal dir: %w", err)
	}
	w := &WAL{index: make(map[string][]byte), sync: true}
	for _, o := range opts {
		o(w)
	}
	var err error
	if w.log, err = OpenLog(path, walMagic, w.sync, w.apply); err != nil {
		return nil, err
	}
	if size := w.log.Size(); size > compactMinSize && size > CompactFactor*(w.liveBytes+int64(len(walMagic))) {
		if err := w.log.Rewrite(SortedOps(w.index, "")); err != nil {
			w.log.Close()
			return nil, err
		}
	}
	return w, nil
}

// apply folds one committed batch into the index.
func (w *WAL) apply(ops []Op) {
	for _, op := range ops {
		if old, ok := w.index[op.Key]; ok {
			w.liveBytes -= int64(len(op.Key) + len(old))
			delete(w.index, op.Key)
		}
		if op.Value != nil {
			w.index[op.Key] = op.Value
			w.liveBytes += int64(len(op.Key) + len(op.Value))
		}
	}
}

// Get implements KVStore.
func (w *WAL) Get(key []byte) ([]byte, bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, false, ErrClosed
	}
	v, ok := w.index[string(key)]
	return bytes.Clone(v), ok, nil
}

// Put implements KVStore.
func (w *WAL) Put(key, value []byte) error { return PutOne(w.Batch(), key, value) }

// Delete implements KVStore.
func (w *WAL) Delete(key []byte) error { return DeleteOne(w.Batch(), key) }

// Iterate implements KVStore.
func (w *WAL) Iterate(prefix []byte, fn func(key, value []byte) error) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	ops := SortedOps(w.index, string(prefix))
	w.mu.Unlock()
	return EachOp(ops, fn)
}

// Batch implements KVStore.
func (w *WAL) Batch() Batch { return NewBatch(w.commit) }

func (w *WAL) commit(ops []Op) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if err := w.log.Append(ops); err != nil {
		return err
	}
	w.apply(ops)
	return nil
}

// Close implements KVStore: it syncs and closes the log file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.log.Close()
}
