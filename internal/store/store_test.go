package store_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tinyevm/internal/store"
	"tinyevm/internal/store/disk"
)

// backends runs a subtest against every KVStore implementation: the
// contract suite below is the one copy of "what a store does", and each
// backend (the tiny-flush disk store reads across segments) is an input.
func backends(t *testing.T, fn func(t *testing.T, kv store.KVStore)) {
	openWAL := func(t *testing.T, opts ...store.WALOption) store.KVStore {
		w, err := store.OpenWAL(filepath.Join(t.TempDir(), "test.wal"), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	openDisk := func(t *testing.T, opts ...disk.Option) store.KVStore {
		db, err := disk.Open(t.TempDir(), append(opts, disk.WithNoSync())...)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	for _, b := range []struct {
		name string
		open func(t *testing.T) store.KVStore
	}{
		{"mem", func(t *testing.T) store.KVStore { return store.NewMem() }},
		{"wal", func(t *testing.T) store.KVStore { return openWAL(t) }},
		{"disk", func(t *testing.T) store.KVStore { return openDisk(t) }},
		{"disk-flush256", func(t *testing.T) store.KVStore { return openDisk(t, disk.WithFlushBytes(256)) }},
	} {
		t.Run(b.name, func(t *testing.T) {
			kv := b.open(t)
			defer kv.Close()
			fn(t, kv)
		})
		t.Run("prefixed-"+b.name, func(t *testing.T) {
			kv := b.open(t)
			defer kv.Close()
			fn(t, store.Prefixed(kv, "ns/"))
		})
	}
}

// isView reports whether the subtest runs on a Prefixed view, which does
// not own (and cannot close) the store under it.
func isView(t *testing.T) bool {
	return strings.Contains(t.Name(), "/prefixed-")
}

func TestStoreBasics(t *testing.T) {
	backends(t, func(t *testing.T, kv store.KVStore) {
		if _, ok, _ := kv.Get([]byte("missing")); ok {
			t.Fatal("missing key found")
		}
		if err := kv.Put([]byte("a"), []byte("1")); err != nil {
			t.Fatal(err)
		}
		if err := kv.Put([]byte("a"), []byte("2")); err != nil {
			t.Fatal(err)
		}
		v, ok, err := kv.Get([]byte("a"))
		if err != nil || !ok || string(v) != "2" {
			t.Fatalf("get a = %q %v %v", v, ok, err)
		}
		if err := kv.Put([]byte("empty"), nil); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := kv.Get([]byte("empty")); err != nil || !ok || len(v) != 0 {
			t.Fatalf("empty value = %q %v %v, want present and empty", v, ok, err)
		}
		if err := kv.Delete([]byte("a")); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := kv.Get([]byte("a")); ok {
			t.Fatal("deleted key found")
		}
		if err := kv.Delete([]byte("a")); err != nil {
			t.Fatal("double delete errored:", err)
		}
		if _, ok := kv.(store.StatsProvider); !ok && !isView(t) {
			t.Fatal("backend must implement store.StatsProvider")
		}
	})
}

func TestStoreIterateOrder(t *testing.T) {
	backends(t, func(t *testing.T, kv store.KVStore) {
		for _, k := range []string{"b/2", "a/1", "b/1", "c", "b/10"} {
			if err := kv.Put([]byte(k), []byte("v"+k)); err != nil {
				t.Fatal(err)
			}
		}
		var got []string
		if err := kv.Iterate([]byte("b/"), func(k, v []byte) error {
			if string(v) != "v"+string(k) {
				t.Fatalf("value mismatch for %q: %q", k, v)
			}
			got = append(got, string(k))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := []string{"b/1", "b/10", "b/2"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("got %v, want %v", got, want)
		}
		stop := errors.New("stop")
		if err := kv.Iterate(nil, func(k, v []byte) error { return stop }); err != stop {
			t.Fatalf("callback error not returned: %v", err)
		}
	})
}

// TestStoreIterateMergesHistory overwrites and deletes across enough
// data that the tiny-flush disk backend spreads it over several segments
// and its memtable: Iterate must show exactly the newest live value of
// every key under the prefix, in order.
func TestStoreIterateMergesHistory(t *testing.T) {
	backends(t, func(t *testing.T, kv store.KVStore) {
		want := map[string]string{}
		put := func(k, v string) {
			t.Helper()
			if err := kv.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		}
		for i := 0; i < 120; i++ {
			put(fmt.Sprintf("op/%04d", i), fmt.Sprintf("value-%d", i))
			put(fmt.Sprintf("chain/%04d", i), "x")
		}
		for i := 0; i < 120; i += 7 {
			put(fmt.Sprintf("op/%04d", i), "new")
		}
		for i := 3; i < 120; i += 11 {
			k := fmt.Sprintf("op/%04d", i)
			if err := kv.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(want, k)
		}
		var prev string
		n := 0
		if err := kv.Iterate([]byte("op/"), func(k, v []byte) error {
			if string(k) <= prev {
				t.Fatalf("keys out of order: %q after %q", k, prev)
			}
			if w, ok := want[string(k)]; !ok || w != string(v) {
				t.Fatalf("%q = %q, want %q (present %v)", k, v, w, ok)
			}
			prev = string(k)
			n++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if wantN := len(want) - 120; n != wantN {
			t.Fatalf("iterated %d keys under op/, want %d", n, wantN)
		}
		for k, w := range want {
			if v, ok, err := kv.Get([]byte(k)); err != nil || !ok || string(v) != w {
				t.Fatalf("Get %q = %q %v %v, want %q", k, v, ok, err, w)
			}
		}
	})
}

func TestStoreBatchAtomicVisibility(t *testing.T) {
	backends(t, func(t *testing.T, kv store.KVStore) {
		if err := kv.Put([]byte("gone"), []byte("x")); err != nil {
			t.Fatal(err)
		}
		b := kv.Batch()
		b.Put([]byte("k1"), []byte("v1"))
		b.Put([]byte("k2"), []byte("v2"))
		b.Delete([]byte("gone"))
		b.Delete([]byte("k1")) // later ops of a batch win over earlier ones
		if _, ok, _ := kv.Get([]byte("k2")); ok {
			t.Fatal("uncommitted batch visible")
		}
		if b.Len() != 4 {
			t.Fatalf("batch len = %d", b.Len())
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
		if v, ok, _ := kv.Get([]byte("k2")); !ok || string(v) != "v2" {
			t.Fatalf("k2 = %q %v", v, ok)
		}
		for _, k := range []string{"gone", "k1"} {
			if _, ok, _ := kv.Get([]byte(k)); ok {
				t.Fatalf("batched delete of %q not applied", k)
			}
		}
	})
}

func TestStoreClosed(t *testing.T) {
	backends(t, func(t *testing.T, kv store.KVStore) {
		if isView(t) {
			t.Skip("prefixed views do not own the underlying store")
		}
		if err := kv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := kv.Put([]byte("k"), []byte("v")); err != store.ErrClosed {
			t.Fatalf("put after close: %v", err)
		}
		if _, _, err := kv.Get([]byte("k")); err != store.ErrClosed {
			t.Fatalf("get after close: %v", err)
		}
		if err := kv.Iterate(nil, func(_, _ []byte) error { return nil }); err != store.ErrClosed {
			t.Fatalf("iterate after close: %v", err)
		}
		if err := kv.Close(); err != nil {
			t.Fatalf("double close: %v", err)
		}
	})
}

func TestPrefixedIsolation(t *testing.T) {
	backends(t, func(t *testing.T, base store.KVStore) {
		a := store.Prefixed(base, "a/")
		b := store.Prefixed(base, "b/")
		if err := a.Put([]byte("k"), []byte("va")); err != nil {
			t.Fatal(err)
		}
		if err := b.Put([]byte("k"), []byte("vb")); err != nil {
			t.Fatal(err)
		}
		if v, ok, _ := a.Get([]byte("k")); !ok || string(v) != "va" {
			t.Fatalf("a/k = %q %v", v, ok)
		}
		var keys []string
		a.Iterate(nil, func(k, v []byte) error { keys = append(keys, string(k)); return nil })
		if len(keys) != 1 || keys[0] != "k" {
			t.Fatalf("a iterate = %v", keys)
		}
		// The store underneath sees both namespaced keys.
		if v, ok, _ := base.Get([]byte("b/k")); !ok || string(v) != "vb" {
			t.Fatalf("base b/k = %q %v", v, ok)
		}
	})
}

func TestWALReopenRestores(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	w, err := store.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := w.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Delete([]byte("key-050")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := store.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if v, ok, _ := w2.Get([]byte("key-099")); !ok || string(v) != "val-99" {
		t.Fatalf("key-099 = %q %v", v, ok)
	}
	if _, ok, _ := w2.Get([]byte("key-050")); ok {
		t.Fatal("deleted key resurrected on reopen")
	}
	n := 0
	w2.Iterate(nil, func(k, v []byte) error { n++; return nil })
	if n != 99 {
		t.Fatalf("keys after reopen = %d, want 99", n)
	}
}

func TestWALBadHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hdr.wal")
	if err := os.WriteFile(path, []byte("NOTAWAL0junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.OpenWAL(path); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("bad header: %v, want ErrCorrupt", err)
	}
	if disk.ErrCorrupt != store.ErrCorrupt {
		t.Fatal("disk.ErrCorrupt must be the store-wide value")
	}
}

// TestWALCompact rewrites overwritten history away and preserves the
// live map across the rewrite and a reopen.
func TestWALCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.wal")
	w, err := store.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < 200; i++ {
		if err := w.Put([]byte("hot"), append(big, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Put([]byte("cold"), []byte("keep")); err != nil {
		t.Fatal(err)
	}
	before := w.Stats().SegmentBytes
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	if after := w.Stats().SegmentBytes; after >= before/10 {
		t.Fatalf("compaction barely shrank the log: %d -> %d", before, after)
	}
	if v, ok, _ := w.Get([]byte("cold")); !ok || string(v) != "keep" {
		t.Fatalf("cold after compact = %q %v", v, ok)
	}
	// The compacted file must still replay and accept appends.
	if err := w.Put([]byte("post"), []byte("compact")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, err := store.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	for _, kv := range [][2]string{{"hot", string(append(big, 199))}, {"cold", "keep"}, {"post", "compact"}} {
		if v, ok, _ := w2.Get([]byte(kv[0])); !ok || string(v) != kv[1] {
			t.Fatalf("%s after compact+reopen = %q %v", kv[0], v, ok)
		}
	}
}

// TestReplayIsBatchAtomic hand-builds a record whose checksum is right
// but whose payload is not a complete op sequence. Replay must treat it
// as the torn tail — none of its ops applied, not the well-formed ones
// before the damage — under both magics.
func TestReplayIsBatchAtomic(t *testing.T) {
	rec := func(payload []byte) []byte {
		out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
		return append(out, payload...)
	}
	put := func(k, v string) []byte {
		out := binary.LittleEndian.AppendUint32([]byte{1}, uint32(len(k)))
		out = binary.LittleEndian.AppendUint32(append(out, k...), uint32(len(v)))
		return append(out, v...)
	}
	for name, damage := range map[string][]byte{
		"field-overrun": {1, 2, 0, 0, 0, 'k', '2', 200, 0, 0, 0, 'x'},
		"unknown-op":    {9, 1, 0, 0, 0, 'k'},
		"short-field":   {2, 1, 0},
	} {
		body := rec(put("first", "1"))
		body = append(body, rec(append(put("half", "applied"), damage...))...)
		body = append(body, rec(put("after", "tear"))...)
		want := map[string]string{"first": "1"}

		t.Run(name+"/wal", func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "tinyevm.wal")
			if err := os.WriteFile(path, append([]byte("TEVMWAL1"), body...), 0o644); err != nil {
				t.Fatal(err)
			}
			w, err := store.OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if got := contents(t, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("contents = %v, want %v", got, want)
			}
		})
		t.Run(name+"/disk", func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "wal.log"), append([]byte("TEVMDWL1"), body...), 0o644); err != nil {
				t.Fatal(err)
			}
			db, err := disk.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if got := contents(t, db); !reflect.DeepEqual(got, want) {
				t.Fatalf("contents = %v, want %v", got, want)
			}
		})
	}
}

// The format pin: testdata/format holds the files the commit before the
// shared record log wrote for the op sequence below (tinyevm.wal by
// store.WAL; store/ by the disk backend with two forced flushes). The
// same sequence must still produce the same bytes, and those files must
// still open — whole, and with the last record torn — to the same
// contents.

var pinLong = bytes.Repeat([]byte("0123456789abcdef"), 20)

// pinWrite runs the pinned op sequence: the flat-WAL one when flush is
// nil, else the disk one, flushing where the golden run did.
func pinWrite(t *testing.T, kv store.KVStore, flush func() error) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(kv.Put([]byte("alpha"), []byte("1")))
	b := kv.Batch()
	b.Put([]byte("beta"), []byte("two"))
	b.Put([]byte("gamma"), nil)
	b.Delete([]byte("alpha"))
	must(b.Commit())
	if flush == nil {
		must(kv.Delete([]byte("missing")))
		must(kv.Put([]byte("beta"), pinLong))
		return
	}
	must(flush())
	must(kv.Delete([]byte("beta")))
	must(kv.Put([]byte("delta"), []byte("4")))
	must(flush())
	must(kv.Put([]byte("epsilon"), []byte("5")))
	b = kv.Batch()
	b.Delete([]byte("gamma"))
	b.Put([]byte("zeta"), pinLong)
	must(b.Commit())
}

func contents(t *testing.T, kv store.KVStore) map[string]string {
	t.Helper()
	m := map[string]string{}
	if err := kv.Iterate(nil, func(k, v []byte) error { m[string(k)] = string(v); return nil }); err != nil {
		t.Fatal(err)
	}
	return m
}

func sameFiles(t *testing.T, gotDir, wantDir string, names ...string) {
	t.Helper()
	for _, name := range names {
		got, err := os.ReadFile(filepath.Join(gotDir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(wantDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the pinned image:\n got %x\nwant %x", name, got, want)
		}
	}
}

// copyGolden copies the named golden files into a fresh directory,
// cutting tear bytes off the end of the first.
func copyGolden(t *testing.T, srcDir string, tear int, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	for i, name := range names {
		b, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			b = b[:len(b)-tear]
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestFormatPin(t *testing.T) {
	const golden = "testdata/format"
	diskFiles := []string{"wal.log", "seg-00000001.seg", "seg-00000002.seg", "MANIFEST"}

	t.Run("wal/write", func(t *testing.T) {
		dir := t.TempDir()
		w, err := store.OpenWAL(filepath.Join(dir, "tinyevm.wal"))
		if err != nil {
			t.Fatal(err)
		}
		pinWrite(t, w, nil)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		sameFiles(t, dir, golden, "tinyevm.wal")
	})
	t.Run("disk/write", func(t *testing.T) {
		dir := t.TempDir()
		db, err := disk.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		pinWrite(t, db, db.Flush)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		sameFiles(t, dir, filepath.Join(golden, "store"), diskFiles...)
	})

	walWhole := map[string]string{"beta": string(pinLong), "gamma": ""}
	walTorn := map[string]string{"beta": "two", "gamma": ""}
	diskWhole := map[string]string{"delta": "4", "epsilon": "5", "zeta": string(pinLong)}
	diskTorn := map[string]string{"gamma": "", "delta": "4", "epsilon": "5"}
	for _, tc := range []struct {
		name              string
		tear              int
		wantWAL, wantDisk map[string]string
	}{
		{"whole", 0, walWhole, diskWhole},
		{"torn-1", 1, walTorn, diskTorn},
		{"torn-payload", len(pinLong), walTorn, diskTorn},
	} {
		t.Run("wal/open-"+tc.name, func(t *testing.T) {
			dir := copyGolden(t, golden, tc.tear, "tinyevm.wal")
			for pass := 0; pass < 2; pass++ { // the second open sees the repaired file
				w, err := store.OpenWAL(filepath.Join(dir, "tinyevm.wal"))
				if err != nil {
					t.Fatal(err)
				}
				if got := contents(t, w); !reflect.DeepEqual(got, tc.wantWAL) {
					t.Fatalf("pass %d: contents = %v, want %v", pass, got, tc.wantWAL)
				}
				w.Close()
			}
		})
		t.Run("disk/open-"+tc.name, func(t *testing.T) {
			dir := copyGolden(t, filepath.Join(golden, "store"), tc.tear, diskFiles...)
			for pass := 0; pass < 2; pass++ {
				db, err := disk.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				if got := contents(t, db); !reflect.DeepEqual(got, tc.wantDisk) {
					t.Fatalf("pass %d: contents = %v, want %v", pass, got, tc.wantDisk)
				}
				db.Close()
			}
		})
	}
}
