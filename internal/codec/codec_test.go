package codec

import (
	"bytes"
	"errors"
	"testing"

	"tinyevm/internal/types"
)

var errTest = errors.New("codec test: malformed")

func TestRoundTrip(t *testing.T) {
	w := NewRecord(nil)
	w.U8(7)
	w.U32(0xdeadbeef)
	w.U64(1 << 40)
	for _, v := range []uint64{0, 1, 127, 128, 1 << 20, 1<<64 - 1} {
		w.Uvarint(v)
	}
	w.Bool(true)
	w.Bool(false)
	w.Hash(types.Hash{1, 2})
	w.Addr(types.Address{3, 4})
	w.Bytes([]byte("payload"))
	w.Bytes(nil)
	w.String("name")
	w.Raw([]byte{9, 9})
	w.U32(3)

	r := OpenRecord(w.Buf, errTest)
	if r.U8() != 7 || r.U32() != 0xdeadbeef || r.U64() != 1<<40 {
		t.Fatal("fixed-width integers")
	}
	for _, v := range []uint64{0, 1, 127, 128, 1 << 20, 1<<64 - 1} {
		if got := r.Uvarint(); got != v {
			t.Fatalf("uvarint %d read back as %d", v, got)
		}
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools")
	}
	if r.Hash() != (types.Hash{1, 2}) || r.Addr() != (types.Address{3, 4}) {
		t.Fatal("fixed fields")
	}
	if got := r.Bytes(16); string(got) != "payload" {
		t.Fatalf("bytes %q", got)
	}
	if got := r.View(16); got != nil {
		t.Fatalf("empty view %v, want nil", got)
	}
	if r.String(16) != "name" || !bytes.Equal(r.Fixed(2), []byte{9, 9}) || r.Count(3) != 3 {
		t.Fatal("string, fixed, count")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderRefuses(t *testing.T) {
	cases := map[string]func(r *Reader){
		"truncated u64":       func(r *Reader) { r.U64() },
		"bytes over cap":      func(r *Reader) { r.Bytes(2) },
		"bytes over input":    func(r *Reader) { r.Bytes(1 << 30) },
		"count over cap":      func(r *Reader) { r.Count(2) },
		"negative cap":        func(r *Reader) { r.Count(-1) },
		"non-minimal uvarint": func(r *Reader) { r.Uvarint() },
		"flag byte":           func(r *Reader) { r.Bool() },
		"trailing bytes":      func(r *Reader) { r.U8() },
	}
	inputs := map[string][]byte{
		"truncated u64":       {1, 2, 3},
		"bytes over cap":      {0, 0, 0, 3, 1, 2, 3},
		"bytes over input":    {0, 0, 1, 0, 1},
		"count over cap":      {0, 0, 0, 3},
		"negative cap":        {0, 0, 0, 0},
		"non-minimal uvarint": {0x80, 0x00},
		"flag byte":           {2},
		"trailing bytes":      {1, 2},
	}
	for name, read := range cases {
		r := NewReader(inputs[name], errTest)
		read(r)
		if err := r.Done(); !errors.Is(err, errTest) {
			t.Errorf("%s: got %v, want an error wrapping the base", name, err)
		}
	}
	if err := OpenRecord([]byte(`{"seq":1}`), errTest).Err(); !errors.Is(err, errTest) {
		t.Errorf("a JSON object passed the format byte: %v", err)
	}
	if err := OpenRecord(nil, errTest).Err(); !errors.Is(err, errTest) {
		t.Errorf("an empty record passed the format byte: %v", err)
	}
}

// FuzzCodecReader drives the reader with an arbitrary script over an
// arbitrary input: script byte i picks the i-th read. Whatever the two
// say, no read panics, the cursor never leaves the input, a length-
// prefixed read never returns more than its cap or than the input
// holds, the first error is the one reported, and after it every read
// returns its zero value.
func FuzzCodecReader(f *testing.F) {
	w := NewRecord(nil)
	w.Uvarint(300)
	w.Bytes([]byte("abc"))
	w.Hash(types.Hash{1})
	f.Add([]byte{0, 3, 6, 4}, w.Buf)
	f.Add([]byte{6, 6, 6}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{3, 3}, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Add([]byte{8, 7, 9}, []byte{0, 0, 0, 2, 0xaa, 0xbb, 0xcc})

	f.Fuzz(func(t *testing.T, script, input []byte) {
		const cap = 64
		r := NewReader(input, errTest)
		var first error
		for _, op := range script {
			before := r.Remaining()
			zero := true
			switch op % 11 {
			case 0:
				zero = r.U8() == 0
			case 1:
				zero = r.U32() == 0
			case 2:
				zero = r.U64() == 0
			case 3:
				zero = r.Uvarint() == 0
			case 4:
				zero = r.Hash() == types.Hash{}
			case 5:
				zero = r.Addr() == types.Address{}
			case 6:
				b := r.Bytes(cap)
				if len(b) > cap || len(b) > len(input) {
					t.Fatalf("Bytes returned %d bytes (cap %d, input %d)", len(b), cap, len(input))
				}
				zero = len(b) == 0
			case 7:
				v := r.View(cap)
				if len(v) > cap || len(v) > len(input) {
					t.Fatalf("View returned %d bytes (cap %d, input %d)", len(v), cap, len(input))
				}
				zero = len(v) == 0
			case 8:
				n := r.Count(cap)
				if n < 0 || n > cap {
					t.Fatalf("Count returned %d (cap %d)", n, cap)
				}
				zero = n == 0
			case 9:
				zero = !r.Bool()
			case 10:
				zero = len(r.Fixed(int(op))) == 0
			}
			if r.Remaining() < 0 || r.Remaining() > before {
				t.Fatalf("cursor moved from %d to %d remaining", before, r.Remaining())
			}
			if first != nil {
				if r.Err() != first {
					t.Fatalf("sticky error replaced: %v then %v", first, r.Err())
				}
				if !zero || r.Remaining() != before {
					t.Fatalf("read %d after a failure returned data or moved the cursor", op%11)
				}
			}
			if first == nil && r.Err() != nil {
				first = r.Err()
				if !errors.Is(first, errTest) {
					t.Fatalf("error does not wrap the base: %v", first)
				}
			}
		}
		if err := r.Done(); err == nil && r.Remaining() != 0 {
			t.Fatal("Done accepted trailing bytes")
		}
	})
}
