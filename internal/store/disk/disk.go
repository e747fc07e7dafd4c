// Package disk is the embedded durable backend behind store.KVStore: a
// small log-structured engine with a write-ahead log, an in-memory
// memtable, sorted immutable segment files with sparse indexes, and
// background compaction.
//
// Write path: a committed batch appends one record to the WAL — the
// shared record log of package store under its own magic; format and
// crash rules are in docs/STORAGE.md, "Record log" — and applies to the
// memtable. When the memtable passes the flush threshold it is written
// out as a sorted segment, the MANIFEST is atomically swapped to include
// it, and the WAL is reset. Reads consult the memtable, then segments
// newest → oldest; deletions propagate as tombstones so newer segments
// shadow older ones.
//
// Crash safety is a chain of atomic pointer swaps: the MANIFEST names
// the live segments and is replaced by rename only after the new
// segment is durable, and the WAL is reset only after the MANIFEST is
// durable. A SIGKILL between any two steps leaves either the old
// manifest + full WAL (replay reconstructs the memtable) or the new
// manifest + stale WAL records (replay is idempotent: the records
// rewrite the values the segment already holds). Orphan files from a
// crash mid-flush or mid-compaction are swept on Open.
//
// Compaction merges every live segment into one (newest value wins,
// tombstones dropped — nothing older remains to shadow), swaps the
// MANIFEST, and only then deletes the inputs. It runs on a background
// goroutine once the segment count passes a threshold.
package disk

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"tinyevm/internal/store"
)

const (
	walName      = "wal.log"
	manifestName = "MANIFEST"

	defaultFlushBytes  = 1 << 20
	defaultCompactSegs = 4
)

const walMagic = "TEVMDWL1"

// DB is the disk-backed KVStore.
type DB struct {
	mu  sync.Mutex
	dir string

	wal *store.Log

	// mem is the memtable; a nil value is a tombstone shadowing older
	// segments. memBytes drives the flush threshold.
	mem      map[string][]byte
	memBytes int64

	// segs holds the live segments oldest → newest.
	segs    []*segment
	nextSeg uint64

	syncWrites  bool
	flushBytes  int64
	compactSegs int

	flushes     uint64
	compactions uint64

	compacting bool
	compactErr error
	compactWG  sync.WaitGroup

	closed bool
}

// Option configures Open.
type Option func(*DB)

// WithNoSync disables fsync on commit: committed batches survive a
// process crash (the OS holds the pages) but may be lost on power
// failure. Useful for tests and throwaway runs.
func WithNoSync() Option {
	return func(db *DB) { db.syncWrites = false }
}

// WithFlushBytes sets the memtable size that triggers a segment flush.
func WithFlushBytes(n int64) Option {
	return func(db *DB) {
		if n > 0 {
			db.flushBytes = n
		}
	}
}

// manifest is the on-disk MANIFEST: the live segment list in
// oldest → newest order plus the next segment id. It is replaced
// atomically (temp + rename + directory fsync), so the set of live
// segments changes in one step or not at all.
type manifest struct {
	Version  int      `json:"version"`
	Next     uint64   `json:"next"`
	Segments []string `json:"segments"`
}

// Open opens (or creates) a disk store rooted at dir: it loads the
// MANIFEST, sweeps orphan files from interrupted flushes/compactions,
// opens the segments and replays the WAL into the memtable (repairing
// a torn tail).
func Open(dir string, opts ...Option) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: creating dir: %w", err)
	}
	db := &DB{
		dir:         dir,
		mem:         make(map[string][]byte),
		nextSeg:     1,
		syncWrites:  true,
		flushBytes:  defaultFlushBytes,
		compactSegs: defaultCompactSegs,
	}
	for _, o := range opts {
		o(db)
	}

	m, err := db.loadManifest()
	if err != nil {
		return nil, err
	}
	if err := db.sweepOrphans(m); err != nil {
		return nil, err
	}
	for _, name := range m.Segments {
		seg, err := openSegment(filepath.Join(dir, name))
		if err != nil {
			db.closeSegments()
			return nil, err
		}
		db.segs = append(db.segs, seg)
	}
	if m.Next > db.nextSeg {
		db.nextSeg = m.Next
	}

	db.wal, err = store.OpenLog(filepath.Join(dir, walName), walMagic, db.syncWrites, db.apply)
	if err != nil {
		db.closeSegments()
		return nil, err
	}
	if len(db.segs) >= db.compactSegs {
		db.mu.Lock()
		db.startCompactionLocked()
		db.mu.Unlock()
	}
	return db, nil
}

// loadManifest reads the MANIFEST; a missing file means a fresh store.
func (db *DB) loadManifest() (manifest, error) {
	var m manifest
	b, err := os.ReadFile(filepath.Join(db.dir, manifestName))
	if os.IsNotExist(err) {
		return manifest{Version: 1, Next: 1}, nil
	}
	if err != nil {
		return m, fmt.Errorf("disk: reading manifest: %w", err)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if m.Version != 1 {
		return m, fmt.Errorf("%w: manifest version %d", ErrCorrupt, m.Version)
	}
	return m, nil
}

// writeManifestLocked atomically replaces the MANIFEST.
func (db *DB) writeManifestLocked() error {
	names := make([]string, len(db.segs))
	for i, s := range db.segs {
		names[i] = filepath.Base(s.path)
	}
	b, err := json.Marshal(manifest{Version: 1, Next: db.nextSeg, Segments: names})
	if err != nil {
		return err
	}
	return store.AtomicReplace(filepath.Join(db.dir, manifestName), b, db.syncWrites)
}

// sweepOrphans removes temp files and segment files the manifest does
// not reference — leftovers of a crash mid-flush or mid-compaction.
// It runs before the WAL is opened, so a swept segment's contents are
// still recoverable from the log.
func (db *DB) sweepOrphans(m manifest) error {
	live := make(map[string]bool, len(m.Segments))
	for _, name := range m.Segments {
		live[name] = true
	}
	names, err := os.ReadDir(db.dir)
	if err != nil {
		return fmt.Errorf("disk: listing dir: %w", err)
	}
	for _, e := range names {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg") && !live[name]:
		default:
			continue
		}
		if err := os.Remove(filepath.Join(db.dir, name)); err != nil {
			return fmt.Errorf("disk: sweeping %s: %w", name, err)
		}
	}
	return nil
}

// apply folds one committed batch into the memtable (nil value =
// tombstone), keeping the byte estimate current.
func (db *DB) apply(ops []store.Op) {
	for _, op := range ops {
		if old, ok := db.mem[op.Key]; ok {
			db.memBytes -= int64(len(op.Key) + len(old))
		}
		db.mem[op.Key] = op.Value
		db.memBytes += int64(len(op.Key) + len(op.Value))
	}
}

func (db *DB) closeSegments() {
	for _, s := range db.segs {
		s.f.Close()
	}
}

// Get implements store.KVStore: memtable first, then segments newest
// to oldest; a tombstone (found, nil value) anywhere stops the search.
func (db *DB) Get(key []byte) ([]byte, bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, false, store.ErrClosed
	}
	v, found := db.mem[string(key)]
	for i := len(db.segs) - 1; i >= 0 && !found; i-- {
		var err error
		if v, found, err = db.segs[i].get(string(key)); err != nil {
			return nil, false, err
		}
	}
	return bytes.Clone(v), v != nil, nil
}

// Put implements store.KVStore.
func (db *DB) Put(key, value []byte) error { return store.PutOne(db.Batch(), key, value) }

// Delete implements store.KVStore.
func (db *DB) Delete(key []byte) error { return store.DeleteOne(db.Batch(), key) }

// Iterate implements store.KVStore: the merged view (segments oldest
// to newest, then the memtable) is collected under the lock and fn
// runs without it, matching the other backends.
func (db *DB) Iterate(prefix []byte, fn func(key, value []byte) error) error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return store.ErrClosed
	}
	merged, err := mergeSegments(db.segs, string(prefix))
	if err != nil {
		db.mu.Unlock()
		return err
	}
	for k, v := range db.mem {
		if strings.HasPrefix(k, string(prefix)) {
			store.Op{Key: k, Value: v}.ApplyTo(merged)
		}
	}
	ops := store.SortedOps(merged, "")
	db.mu.Unlock()
	return store.EachOp(ops, fn)
}

// mergeSegments folds the entries of segs (oldest → newest) that carry
// the prefix into one map: the newest value wins and a tombstone removes
// the key.
func mergeSegments(segs []*segment, prefix string) (map[string][]byte, error) {
	merged := make(map[string][]byte)
	for _, s := range segs {
		entries, err := s.all()
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Key, prefix) {
				e.ApplyTo(merged)
			}
		}
	}
	return merged, nil
}

// Batch implements store.KVStore.
func (db *DB) Batch() store.Batch { return store.NewBatch(db.commit) }

// commit appends the batch to the WAL as one record, applies it to the
// memtable, and may flush.
func (db *DB) commit(ops []store.Op) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return store.ErrClosed
	}
	if err := db.wal.Append(ops); err != nil {
		return err
	}
	db.apply(ops)
	// The memtable counts live bytes only, so a store that keeps
	// rewriting the same keys never fills it while the log keeps every
	// dead copy — and Open replays them all. The log's own size flushes
	// too.
	if db.memBytes >= db.flushBytes || db.wal.Size() > store.CompactFactor*db.flushBytes {
		// The batch is durable (the WAL record committed); failing to
		// flush is still surfaced so the caller halts rather than
		// running on a store that cannot roll forward.
		return db.flushLocked()
	}
	return nil
}

// Close implements store.KVStore: it waits for an in-flight compaction,
// syncs the WAL and closes every file.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.mu.Unlock()
	db.compactWG.Wait()

	db.mu.Lock()
	defer db.mu.Unlock()
	db.closeSegments()
	return db.wal.Close()
}

// Stats implements store.StatsProvider.
func (db *DB) Stats() store.Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	st := store.Stats{
		Kind:          "disk",
		Segments:      len(db.segs),
		MemtableBytes: db.memBytes,
		Flushes:       db.flushes,
		Compactions:   db.compactions,
	}
	for _, s := range db.segs {
		st.SegmentBytes += s.size
	}
	return st
}

// Flush forces the memtable out as a segment (mainly for tests).
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return store.ErrClosed
	}
	return db.flushLocked()
}

func (db *DB) segPath(id uint64) string {
	return filepath.Join(db.dir, fmt.Sprintf("seg-%08d.seg", id))
}

// flushLocked writes the memtable out as a new segment, swaps the
// MANIFEST and resets the WAL. Tombstones are written only when an
// older segment exists for them to shadow.
func (db *DB) flushLocked() error {
	if len(db.mem) == 0 {
		return nil
	}
	entries := store.SortedOps(db.mem, "")
	if len(db.segs) == 0 {
		live := entries[:0]
		for _, e := range entries {
			if e.Value != nil {
				live = append(live, e)
			}
		}
		entries = live
	}
	if len(entries) > 0 {
		path := db.segPath(db.nextSeg)
		if err := store.AtomicReplace(path, encodeSegment(entries), db.syncWrites); err != nil {
			return err
		}
		seg, err := openSegment(path)
		if err != nil {
			return err
		}
		db.segs = append(db.segs, seg)
		db.nextSeg++
	}
	if err := db.writeManifestLocked(); err != nil {
		return err
	}
	// The segment and manifest are durable; drop the WAL and memtable.
	// A crash before this reset replays records whose values the
	// segment already holds — harmless.
	if err := db.wal.Reset(); err != nil {
		return err
	}
	db.mem = make(map[string][]byte)
	db.memBytes = 0
	db.flushes++

	if len(db.segs) >= db.compactSegs && !db.compacting {
		db.startCompactionLocked()
	}
	return nil
}

// startCompactionLocked kicks off a background merge of the current
// segment list. Flushes may append new segments meanwhile; the swap
// splices the merged segment in front of them.
func (db *DB) startCompactionLocked() {
	if len(db.segs) < 2 {
		return
	}
	db.compacting = true
	snap := make([]*segment, len(db.segs))
	copy(snap, db.segs)
	path := db.segPath(db.nextSeg)
	db.nextSeg++
	db.compactWG.Add(1)
	go func() {
		defer db.compactWG.Done()
		err := db.compact(snap, path)
		db.mu.Lock()
		db.compactErr, db.compacting = err, false
		db.mu.Unlock()
	}()
}

// compact merges snap (oldest → newest, newest wins; snap starts at the
// oldest live segment, so tombstones have nothing left to shadow and
// are dropped) into one segment at path. The merge and the install of
// the new file run without the lock — until the MANIFEST names it the
// file is an orphan a reopen sweeps; the swap — manifest, segment-list
// splice, input deletion — runs under it.
func (db *DB) compact(snap []*segment, path string) error {
	merged, err := mergeSegments(snap, "")
	if err != nil {
		return err
	}
	img := encodeSegment(store.SortedOps(merged, ""))
	if err := store.AtomicReplace(path, img, db.syncWrites); err != nil {
		return err
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		os.Remove(path)
		return nil
	}
	seg, err := openSegment(path)
	if err != nil {
		return err
	}
	old := db.segs[:len(snap)]
	db.segs = append([]*segment{seg}, db.segs[len(snap):]...)
	if err := db.writeManifestLocked(); err != nil {
		// Roll the in-memory list back; the old manifest is still the
		// durable truth and still names the inputs.
		db.segs = append(old[:len(old):len(old)], db.segs[1:]...)
		seg.f.Close()
		os.Remove(path)
		return err
	}
	for _, s := range old {
		s.f.Close()
		os.Remove(s.path)
	}
	db.compactions++
	return nil
}
