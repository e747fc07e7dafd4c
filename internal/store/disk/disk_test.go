package disk

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tinyevm/internal/store"
)

// openTest opens a store in dir with small thresholds and no fsync so
// tests can exercise flush and compaction cheaply.
func openTest(t *testing.T, dir string, opts ...Option) *DB {
	t.Helper()
	db, err := Open(dir, append([]Option{WithNoSync()}, opts...)...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

func TestDiskBasicReopen(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir)
	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := db.Put([]byte("b"), []byte("2")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := db.Delete([]byte("a")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db = openTest(t, dir)
	defer db.Close()
	if _, ok, err := db.Get([]byte("a")); err != nil || ok {
		t.Fatalf("deleted key resurfaced: ok=%v err=%v", ok, err)
	}
	v, ok, err := db.Get([]byte("b"))
	if err != nil || !ok || string(v) != "2" {
		t.Fatalf("Get b = %q, %v, %v", v, ok, err)
	}
}

// TestDiskOverwritesBoundTheWAL rewrites one key until the log has
// carried many times the flush threshold in dead copies: the memtable
// never fills (it holds one live value), so only the log's own size can
// trigger the flush that resets it.
func TestDiskOverwritesBoundTheWAL(t *testing.T) {
	const flushBytes = 4096
	dir := t.TempDir()
	db := openTest(t, dir, WithFlushBytes(flushBytes))
	value := bytes.Repeat([]byte{0xab}, 256)
	maxWAL := int64(0)
	for i := 0; i < 40*flushBytes/len(value); i++ {
		value[0] = byte(i)
		if err := db.Put([]byte("ckpt/state"), value); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		fi, err := os.Stat(filepath.Join(dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		maxWAL = max(maxWAL, fi.Size())
	}
	if bound := int64(store.CompactFactor*flushBytes + 2*len(value)); maxWAL > bound {
		t.Fatalf("wal.log reached %d bytes under overwrites of one %d-byte value, bound %d", maxWAL, len(value), bound)
	}
	if st := db.Stats(); st.Flushes == 0 || st.MemtableBytes >= flushBytes {
		t.Fatalf("expected size-triggered flushes with a near-empty memtable: %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openTest(t, dir, WithFlushBytes(flushBytes))
	defer db.Close()
	if got, ok, err := db.Get([]byte("ckpt/state")); err != nil || !ok || !bytes.Equal(got, value) {
		t.Fatalf("last overwrite lost across reopen: ok=%v err=%v", ok, err)
	}
}

// TestDiskFlushAndGet drives enough writes through a tiny flush
// threshold to produce several segments, then checks point lookups and
// overwrites across the memtable/segment boundary.
func TestDiskFlushAndGet(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, WithFlushBytes(256), withCompactSegments(1000))
	defer db.Close()

	const n = 200
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v := fmt.Sprintf("val-%d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatalf("Put %s: %v", k, err)
		}
	}
	// Overwrite a slice of them so newer segments must shadow older.
	for i := 0; i < n; i += 7 {
		k := fmt.Sprintf("key-%04d", i)
		if err := db.Put([]byte(k), []byte("new")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	st := db.Stats()
	if st.Kind != "disk" || st.Segments == 0 || st.Flushes == 0 {
		t.Fatalf("expected flushed segments, got %+v", st)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%04d", i)
		want := fmt.Sprintf("val-%d", i)
		if i%7 == 0 {
			want = "new"
		}
		v, ok, err := db.Get([]byte(k))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("Get %s = %q, %v, %v (want %q)", k, v, ok, err, want)
		}
	}
	if _, ok, _ := db.Get([]byte("missing")); ok {
		t.Fatal("missing key found")
	}
}

func TestDiskTombstoneShadowsSegments(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, withCompactSegments(1000))
	defer db.Close()

	if err := db.Put([]byte("k"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := db.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// The tombstone now lives in a newer segment; it must shadow the
	// older segment's value, including across a reopen.
	if _, ok, _ := db.Get([]byte("k")); ok {
		t.Fatal("tombstone did not shadow older segment")
	}
	db.Close()
	db = openTest(t, dir, withCompactSegments(1000))
	defer db.Close()
	if _, ok, _ := db.Get([]byte("k")); ok {
		t.Fatal("tombstone lost across reopen")
	}
}

func TestDiskCompaction(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, withCompactSegments(1000))
	defer db.Close()

	for round := 0; round < 5; round++ {
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("key-%03d", i)
			v := fmt.Sprintf("round-%d", round)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	if err := db.Delete([]byte("key-000")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	before := db.Stats()
	if before.Segments < 2 {
		t.Fatalf("want several segments, got %+v", before)
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := db.Stats()
	if after.Segments != 1 || after.Compactions == 0 {
		t.Fatalf("compaction did not collapse segments: %+v", after)
	}
	if _, ok, _ := db.Get([]byte("key-000")); ok {
		t.Fatal("tombstoned key resurfaced after compaction")
	}
	for i := 1; i < 20; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v, ok, err := db.Get([]byte(k))
		if err != nil || !ok || string(v) != "round-4" {
			t.Fatalf("Get %s = %q, %v, %v", k, v, ok, err)
		}
	}
	// Old segment files must be gone from disk.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segFiles := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".seg" {
			segFiles++
		}
	}
	if segFiles != 1 {
		t.Fatalf("want 1 segment file after compaction, got %d", segFiles)
	}
}

// TestDiskSegmentBitFlip flips every byte of a segment file in turn;
// each mutation must surface as an error on full parse — never as a
// silently different decode.
func TestDiskSegmentBitFlip(t *testing.T) {
	var entries []store.Op
	for i := 0; i < 40; i++ {
		entries = append(entries, store.Op{
			Key:   fmt.Sprintf("key-%03d", i),
			Value: []byte(fmt.Sprintf("value-%d", i)),
		})
	}
	entries[5].Value = nil // a tombstone
	img := encodeSegment(entries)

	orig, err := parseSegment(img)
	if err != nil {
		t.Fatalf("parse of pristine image: %v", err)
	}
	if len(orig) != len(entries) {
		t.Fatalf("parse lost entries: %d != %d", len(orig), len(entries))
	}

	for pos := 0; pos < len(img); pos++ {
		mut := append([]byte(nil), img...)
		mut[pos] ^= 0x40
		got, err := parseSegment(mut)
		if err != nil {
			continue
		}
		// A parse that still succeeds must be canonical — re-encoding
		// must reproduce the mutated image — and that cannot happen for
		// a single-bit flip unless decode output changed silently.
		if !bytes.Equal(encodeSegment(got), mut) {
			t.Fatalf("flip at %d: silent non-canonical decode", pos)
		}
		t.Fatalf("flip at %d went undetected", pos)
	}

	// Every truncation must fail loudly too.
	for cut := 0; cut < len(img); cut++ {
		if _, err := parseSegment(img[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", cut)
		}
	}
}

// TestDiskCrashMidFlushOrphan simulates dying between writing a
// segment file and committing the manifest: the orphan segment must be
// swept and the data must still come back from the WAL.
func TestDiskCrashMidFlushOrphan(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir)
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Fabricate the crash artifacts: an orphan segment and a temp file.
	orphan := encodeSegment([]store.Op{{Key: "zzz", Value: []byte("orphan")}})
	if err := os.WriteFile(filepath.Join(dir, "seg-09999999.seg"), orphan, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000042.seg.tmp"), orphan, 0o644); err != nil {
		t.Fatal(err)
	}

	db = openTest(t, dir)
	defer db.Close()
	if _, ok, _ := db.Get([]byte("zzz")); ok {
		t.Fatal("orphan segment data visible")
	}
	if v, ok, _ := db.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("WAL data lost: %q, %v", v, ok)
	}
	for _, name := range []string{"seg-09999999.seg", "seg-00000042.seg.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s not swept", name)
		}
	}
}

// FuzzSegmentCodec pins the segment format's two safety properties:
// parseSegment never panics on arbitrary bytes, and any image it does
// accept is canonical — re-encoding the decoded entries reproduces the
// input bit for bit. Together with the CRC frames this means a torn
// write, truncation or bit flip can only ever surface as ErrCorrupt,
// never as silently different data.
func FuzzSegmentCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add(encodeSegment(nil))
	f.Add(encodeSegment([]store.Op{{Key: "a", Value: []byte("1")}}))
	f.Add(encodeSegment([]store.Op{
		{Key: "a", Value: []byte{}},
		{Key: "b"}, // tombstone
		{Key: "c", Value: []byte("ccc")},
	}))
	var many []store.Op
	for i := 0; i < 50; i++ {
		many = append(many, store.Op{Key: fmt.Sprintf("k%04d", i), Value: []byte{byte(i)}})
	}
	full := encodeSegment(many)
	f.Add(full)
	f.Add(full[:len(full)-1])
	f.Add(full[:len(full)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := parseSegment(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeSegment(entries), data) {
			t.Fatalf("accepted non-canonical segment image (%d bytes)", len(data))
		}
		for i := 1; i < len(entries); i++ {
			if entries[i-1].Key >= entries[i].Key {
				t.Fatalf("accepted unsorted entries %q >= %q", entries[i-1].Key, entries[i].Key)
			}
		}
	})
}
