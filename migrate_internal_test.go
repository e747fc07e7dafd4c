package tinyevm

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"tinyevm/internal/store"
)

// commitCounter counts the batches committed to a store.
type commitCounter struct {
	store.KVStore
	commits int
}

func (c *commitCounter) Batch() store.Batch { return countedBatch{c.KVStore.Batch(), c} }

type countedBatch struct {
	store.Batch
	c *commitCounter
}

func (b countedBatch) Commit() error {
	b.c.commits++
	return b.Batch.Commit()
}

// format2Meta is the meta record of the store the format-2 commit wrote.
func format2Meta(t testing.TB) []byte {
	t.Helper()
	f, err := os.Open("testdata/format/v2/store.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := bufio.NewScanner(f)
	lines.Buffer(nil, 1<<20)
	for lines.Scan() {
		if text, ok := strings.CutPrefix(lines.Text(), serviceMetaKey+" "); ok {
			meta, err := hex.DecodeString(text)
			if err != nil {
				t.Fatal(err)
			}
			return meta
		}
	}
	t.Fatalf("no %s record (%v)", serviceMetaKey, lines.Err())
	return nil
}

// openMeta runs the open path's meta steps over kv, requesting the
// deployment the store records.
func openMeta(kv store.KVStore) error {
	have, used, err := storedMeta(kv)
	if err != nil {
		return err
	}
	return checkMeta(kv, have, used, have)
}

// FuzzStoredMeta hands the open path a store holding nothing but a
// fuzzed meta record: it must not panic; a refused open writes nothing;
// an accepted one leaves a meta stamped storeFormat, and a second open
// commits no batch.
func FuzzStoredMeta(f *testing.F) {
	v2 := format2Meta(f)
	f.Add(v2)
	f.Add(bytes.Replace(v2, []byte(`"format":2`), []byte(`"format":3`), 1))
	f.Fuzz(func(t *testing.T, meta []byte) {
		mem := store.NewMem()
		if err := mem.Put([]byte(serviceMetaKey), meta); err != nil {
			t.Fatal(err)
		}
		kv := &commitCounter{KVStore: mem}
		if err := openMeta(kv); err != nil {
			now, _, _ := mem.Get([]byte(serviceMetaKey))
			if kv.commits != 0 || !bytes.Equal(now, meta) {
				t.Fatalf("a refused open (%v) committed %d batches, meta %q -> %q", err, kv.commits, meta, now)
			}
			return
		}
		now, _, _ := mem.Get([]byte(serviceMetaKey))
		var stamped serviceMeta
		if err := json.Unmarshal(now, &stamped); err != nil || stamped.Format != storeFormat {
			t.Fatalf("accepted meta %q reads back as %q (%v)", meta, now, err)
		}
		kv.commits = 0
		if err := openMeta(kv); err != nil || kv.commits != 0 {
			t.Fatalf("second open of %q: %v, %d commits", now, err, kv.commits)
		}
	})
}
