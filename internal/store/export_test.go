package store

// Compact forces the rewrite OpenWAL runs on a log carrying mostly dead
// weight: the log then holds exactly the live pairs.
func (w *WAL) Compact() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.log.Rewrite(SortedOps(w.index, ""))
}
