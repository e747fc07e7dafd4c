package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// logMagics are the two headers the shared log runs under: store.WAL's
// and the disk backend's.
var logMagics = []string{walMagic, "TEVMDWL1"}

// openLogMap opens the log at path and returns it with the map its
// records replay to.
func openLogMap(t *testing.T, path, magic string) (*Log, map[string]string) {
	t.Helper()
	m := map[string]string{}
	l, err := OpenLog(path, magic, false, func(ops []Op) {
		for _, op := range ops {
			if op.Value == nil {
				delete(m, op.Key)
			} else {
				m[op.Key] = string(op.Value)
			}
		}
	})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	return l, m
}

func put(k, v string) []Op { return []Op{{Key: k, Value: []byte(v)}} }

func mustAppend(t *testing.T, l *Log, ops []Op) {
	t.Helper()
	if err := l.Append(ops); err != nil {
		t.Fatalf("Append: %v", err)
	}
}

// TestWALTornTail crash-simulates a partial append under both magics:
// everything up to the last fully written record must replay, the tail
// is discarded, and the log stays appendable on a record boundary.
func TestWALTornTail(t *testing.T) {
	check := func(t *testing.T, magic string, tear func(path string, sizeAfterFirst int64)) {
		path := filepath.Join(t.TempDir(), "torn.log")
		l, _ := openLogMap(t, path, magic)
		mustAppend(t, l, put("durable", "yes"))
		sizeAfterFirst := l.Size()
		mustAppend(t, l, put("torn", "record"))
		l.Close()
		tear(path, sizeAfterFirst)

		l, m := openLogMap(t, path, magic)
		if want := map[string]string{"durable": "yes"}; !reflect.DeepEqual(m, want) {
			t.Fatalf("replayed %v, want %v", m, want)
		}
		if l.Size() != sizeAfterFirst {
			t.Fatalf("size after repair = %d, want %d", l.Size(), sizeAfterFirst)
		}
		mustAppend(t, l, put("after", "repair"))
		l.Close()
		l, m = openLogMap(t, path, magic)
		defer l.Close()
		if want := map[string]string{"durable": "yes", "after": "repair"}; !reflect.DeepEqual(m, want) {
			t.Fatalf("after repair+append replayed %v, want %v", m, want)
		}
	}
	for _, cut := range []int{1, 5, 9} { // inside the frame header and the payload
		t.Run(fmt.Sprintf("cut-%d", cut), func(t *testing.T) {
			for _, magic := range logMagics {
				t.Run(magic, func(t *testing.T) {
					check(t, magic, func(path string, sizeAfterFirst int64) {
						if err := os.Truncate(path, sizeAfterFirst+int64(cut)); err != nil {
							t.Fatal(err)
						}
					})
				})
			}
		})
	}
	// A plausible header whose payload never made it.
	t.Run("short-payload", func(t *testing.T) {
		for _, magic := range logMagics {
			t.Run(magic, func(t *testing.T) {
				check(t, magic, func(path string, sizeAfterFirst int64) {
					if err := os.Truncate(path, sizeAfterFirst); err != nil {
						t.Fatal(err)
					}
					f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
					if err != nil {
						t.Fatal(err)
					}
					defer f.Close()
					if _, err := f.Write([]byte{0xff, 0, 0, 0, 1, 2, 3, 4, 5}); err != nil {
						t.Fatal(err)
					}
				})
			})
		}
	})
}

// TestWALChecksumCorruption flips a payload byte of the last record: the
// checksum must reject it and replay must stop at the previous record.
func TestWALChecksumCorruption(t *testing.T) {
	for _, magic := range logMagics {
		t.Run(magic, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "crc.log")
			l, _ := openLogMap(t, path, magic)
			mustAppend(t, l, put("good", "1"))
			mustAppend(t, l, put("bad", "2"))
			l.Close()

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			l, m := openLogMap(t, path, magic)
			defer l.Close()
			if want := map[string]string{"good": "1"}; !reflect.DeepEqual(m, want) {
				t.Fatalf("replayed %v, want %v", m, want)
			}
		})
	}
}

// faultyFile wraps the log's real file and fails the calls it is told to.
type faultyFile struct {
	logFile
	write, sync, truncate error
}

func (f *faultyFile) Write(b []byte) (int, error) {
	if f.write != nil {
		n, _ := f.logFile.Write(b[:len(b)/2]) // a torn append
		return n, f.write
	}
	return f.logFile.Write(b)
}

func (f *faultyFile) Sync() error {
	if f.sync != nil {
		return f.sync
	}
	return f.logFile.Sync()
}

func (f *faultyFile) Truncate(n int64) error {
	if f.truncate != nil {
		return f.truncate
	}
	return f.logFile.Truncate(n)
}

// TestLogAppendRollback: a failed write or fsync is reported, leaves no
// byte of the record behind, and the log carries on.
func TestLogAppendRollback(t *testing.T) {
	for _, fault := range []string{"write", "sync"} {
		t.Run(fault, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "rb.log")
			l, err := OpenLog(path, walMagic, true, func([]Op) {})
			if err != nil {
				t.Fatal(err)
			}
			mustAppend(t, l, put("a", "1"))
			boom := errors.New("injected " + fault + " failure")
			ff := &faultyFile{logFile: l.f}
			if fault == "write" {
				ff.write = boom
			} else {
				ff.sync = boom
			}
			l.f = ff
			if err := l.Append(put("lost", "x")); !errors.Is(err, boom) {
				t.Fatalf("Append = %v, want the injected failure", err)
			}
			ff.write, ff.sync = nil, nil
			mustAppend(t, l, put("b", "2"))
			l.Close()
			_, m := openLogMap(t, path, walMagic)
			if want := map[string]string{"a": "1", "b": "2"}; !reflect.DeepEqual(m, want) {
				t.Fatalf("replayed %v, want %v", m, want)
			}
		})
	}
}

// TestLogPoisonedByFailedRollback: when the rollback itself fails the
// file may end in half a record, so nothing may be appended after it —
// every later commit returns the failure instead.
func TestLogPoisonedByFailedRollback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "poison.wal")
	w, err := OpenWAL(path, WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected truncate failure")
	ff := &faultyFile{logFile: w.log.f, write: errors.New("injected write failure"), truncate: boom}
	w.log.f = ff
	if err := w.Put([]byte("lost"), []byte("x")); !errors.Is(err, boom) {
		t.Fatalf("Put = %v, want the rollback failure", err)
	}
	ff.write, ff.truncate = nil, nil // the disk recovers; the log must not
	for i := 0; i < 2; i++ {
		if err := w.Put([]byte("b"), []byte("2")); !errors.Is(err, boom) {
			t.Fatalf("Put on a poisoned log = %v, want the rollback failure", err)
		}
	}
	if err := w.Compact(); !errors.Is(err, boom) {
		t.Fatalf("Compact on a poisoned log = %v, want the rollback failure", err)
	}
	if v, ok, err := w.Get([]byte("a")); err != nil || !ok || string(v) != "1" {
		t.Fatalf("reads must keep working: %q %v %v", v, ok, err)
	}
	w.Close()
	// The restart repairs the tear and never saw the failed batches.
	_, m := openLogMap(t, path, walMagic)
	if want := map[string]string{"a": "1"}; !reflect.DeepEqual(m, want) {
		t.Fatalf("replayed %v, want %v", m, want)
	}
}

// TestAtomicReplaceDirSync: a failed directory fsync is returned (the
// rename may not survive power loss), from the helper and through a WAL
// compaction; if the compacted file cannot be reopened the log is
// poisoned, because the old handle points at an unlinked file.
func TestAtomicReplaceDirSync(t *testing.T) {
	realSync := fsyncDir
	defer func() { fsyncDir = realSync }()
	boom := errors.New("injected dir fsync failure")

	path := filepath.Join(t.TempDir(), "sub", "c.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}

	fsyncDir = func(dir string) error {
		if dir != filepath.Dir(path) {
			t.Errorf("fsync of %q, want the file's directory", dir)
		}
		return boom
	}
	if err := AtomicReplace(path+".other", []byte("x"), true); !errors.Is(err, boom) {
		t.Fatalf("AtomicReplace = %v, want the dir fsync failure", err)
	}
	if err := AtomicReplace(path+".other", []byte("x"), false); err != nil {
		t.Fatalf("AtomicReplace without sync = %v", err)
	}
	if err := w.Compact(); !errors.Is(err, boom) {
		t.Fatalf("Compact = %v, want the dir fsync failure", err)
	}
	// The rename happened, so the log follows the new file and stays usable.
	if err := w.Put([]byte("b"), []byte("2")); err != nil {
		t.Fatalf("Put after a compaction whose dir fsync failed: %v", err)
	}

	fsyncDir = func(string) error { // the new file vanishes before the reopen
		os.Remove(path)
		return os.Mkdir(path, 0o755)
	}
	err = w.Compact()
	if err == nil {
		t.Fatal("Compact with an unopenable result succeeded")
	}
	if perr := w.Put([]byte("c"), []byte("3")); perr == nil || perr.Error() != err.Error() {
		t.Fatalf("Put after a failed reopen = %v, want the poison %v", perr, err)
	}
}

// refReplay is the fuzzer's oracle, written against the format document
// rather than the codec: the state that the whole records at the front of
// body (a log file minus its magic) replay to, and how many bytes they
// span. A record counts only if its frame verifies and its payload is a
// complete op sequence.
func refReplay(body []byte) (map[string]string, int) {
	m := map[string]string{}
	off := 0
	for len(body)-off >= 8 {
		n := int(binary.LittleEndian.Uint32(body[off:]))
		if n > len(body)-off-8 {
			break
		}
		p := body[off+8 : off+8+n]
		if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(body[off+4:]) {
			break
		}
		type kv struct {
			k, v string
			del  bool
		}
		var staged []kv
		field := func() (string, bool) {
			if len(p) < 4 || int(binary.LittleEndian.Uint32(p)) > len(p)-4 {
				return "", false
			}
			n := int(binary.LittleEndian.Uint32(p))
			s := string(p[4 : 4+n])
			p = p[4+n:]
			return s, true
		}
		ok := true
		for ok && len(p) > 0 {
			kind := p[0]
			p = p[1:]
			var e kv
			if e.k, ok = field(); !ok {
				break
			}
			switch kind {
			case 1:
				e.v, ok = field()
			case 2:
				e.del = true
			default:
				ok = false
			}
			staged = append(staged, e)
		}
		if !ok {
			break
		}
		for _, e := range staged {
			if e.del {
				delete(m, e.k)
			} else {
				m[e.k] = e.v
			}
		}
		off += 8 + n
	}
	return m, off
}

// FuzzLogReplay feeds arbitrary bytes after either magic to the shared
// log: open never panics or fails, it recovers exactly the records before
// the first bad one, cuts the file there, a second open changes nothing,
// and the next append lands on a record boundary.
func FuzzLogReplay(f *testing.F) {
	rec := func(ops ...Op) []byte { return Frame(nil, EncodeOps(nil, ops...)) }
	good := rec(Op{Key: "a", Value: []byte("1")}, Op{Key: "b", Value: []byte{}}, Op{Key: "a"})
	f.Add(false, []byte{})
	f.Add(true, good)
	f.Add(false, append(append([]byte{}, good...), good[:len(good)-3]...))
	f.Add(true, append(append([]byte{}, good...), Frame(nil, []byte{opPut, 1, 0, 0, 0, 'k', 9, 0, 0, 0})...))
	f.Add(false, Frame(nil, []byte{7, 0, 0, 0, 0}))
	f.Add(true, append(Frame(nil, nil), good...))
	f.Add(false, []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, diskMagic bool, body []byte) {
		magic := logMagics[0]
		if diskMagic {
			magic = logMagics[1]
		}
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, append([]byte(magic), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		want, valid := refReplay(body)
		image := append([]byte(magic), body[:valid]...)

		for pass := 0; pass < 2; pass++ {
			l, got := openLogMap(t, path, magic)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d: replayed %v, want %v", pass, got, want)
			}
			if l.Size() != int64(len(image)) {
				t.Fatalf("pass %d: size %d, want %d", pass, l.Size(), len(image))
			}
			l.Close()
			if file, _ := os.ReadFile(path); !bytes.Equal(file, image) {
				t.Fatalf("pass %d: file is not the valid prefix", pass)
			}
		}

		l, _ := openLogMap(t, path, magic)
		mustAppend(t, l, put("appended", "ok"))
		l.Close()
		want["appended"] = "ok"
		l, got := openLogMap(t, path, magic)
		l.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after append: replayed %v, want %v", got, want)
		}
	})
}
