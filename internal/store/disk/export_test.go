package disk

import "tinyevm/internal/store"

// withCompactSegments sets the live-segment count that triggers a
// background compaction (defaultCompactSegs otherwise).
func withCompactSegments(n int) Option {
	return func(db *DB) { db.compactSegs = n }
}

// Compact triggers a compaction (if one is not already running) and
// waits for it.
func (db *DB) Compact() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return store.ErrClosed
	}
	if !db.compacting && len(db.segs) > 1 {
		db.startCompactionLocked()
	}
	db.mu.Unlock()
	db.compactWG.Wait()
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.compactErr
}
