package uint256

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// twoTo256 is the modulus of the Int type as a big.Int.
var twoTo256 = new(big.Int).Lsh(big.NewInt(1), 256)

// randInt draws a 256-bit integer with a size distribution that exercises
// small numbers, single limbs and full-width values evenly.
func randInt(r *rand.Rand) *Int {
	z := new(Int)
	limbs := r.Intn(5) // 0..4 significant limbs
	for i := 0; i < limbs; i++ {
		z[i] = r.Uint64()
	}
	if limbs > 0 && r.Intn(4) == 0 {
		z[limbs-1] &= (uint64(1) << uint(r.Intn(64)+1)) - 1
	}
	return z
}

func toBig(z *Int) *big.Int { return z.ToBig() }

func fromBigMod(b *big.Int) *Int {
	m := new(big.Int).Mod(b, twoTo256)
	z := new(Int)
	z.SetFromBig(m)
	return z
}

func TestSetBytesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		x := randInt(r)
		got := new(Int).SetBytes(x.Bytes())
		if !got.Eq(x) {
			t.Fatalf("round trip failed: %s != %s", got.Hex(), x.Hex())
		}
		full := x.Bytes32()
		got2 := new(Int).SetBytes(full[:])
		if !got2.Eq(x) {
			t.Fatalf("bytes32 round trip failed for %s", x.Hex())
		}
	}
}

func TestBigRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		x := randInt(r)
		b := toBig(x)
		y := new(Int)
		if overflow := y.SetFromBig(b); overflow {
			t.Fatalf("unexpected overflow for %s", x.Hex())
		}
		if !y.Eq(x) {
			t.Fatalf("big round trip failed: %s != %s", y.Hex(), x.Hex())
		}
	}
}

// checkBinop verifies a uint256 binary op against its math/big reference on
// a large sample of random operands including structured edge cases.
func checkBinop(t *testing.T, name string,
	op func(z, x, y *Int) *Int,
	ref func(x, y *big.Int) *big.Int,
) {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	cases := edgeCases()
	for i := 0; i < 4000; i++ {
		var x, y *Int
		if i < len(cases)*len(cases) {
			x = cases[i%len(cases)].Clone()
			y = cases[i/len(cases)%len(cases)].Clone()
		} else {
			x, y = randInt(r), randInt(r)
		}
		want := fromBigMod(ref(toBig(x), toBig(y)))
		got := op(new(Int), x, y)
		if !got.Eq(want) {
			t.Fatalf("%s(%s, %s) = %s, want %s", name, x.Hex(), y.Hex(), got.Hex(), want.Hex())
		}
	}
}

func edgeCases() []*Int {
	return []*Int{
		NewInt(0),
		NewInt(1),
		NewInt(2),
		NewInt(^uint64(0)),
		{0, 1, 0, 0},
		{^uint64(0), ^uint64(0), 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, 1},
		{0, 0, 0, signBit},
		new(Int).SetAllOnes(),
		{1, 0, 0, signBit},
		{^uint64(0), 0, ^uint64(0), 0},
	}
}

func TestAdd(t *testing.T) {
	checkBinop(t, "Add", (*Int).Add, func(x, y *big.Int) *big.Int { return new(big.Int).Add(x, y) })
}

func TestSub(t *testing.T) {
	checkBinop(t, "Sub", (*Int).Sub, func(x, y *big.Int) *big.Int { return new(big.Int).Sub(x, y) })
}

func TestMul(t *testing.T) {
	checkBinop(t, "Mul", (*Int).Mul, func(x, y *big.Int) *big.Int { return new(big.Int).Mul(x, y) })
}

func TestDiv(t *testing.T) {
	checkBinop(t, "Div", (*Int).Div, func(x, y *big.Int) *big.Int {
		if y.Sign() == 0 {
			return new(big.Int)
		}
		return new(big.Int).Div(x, y)
	})
}

func TestMod(t *testing.T) {
	checkBinop(t, "Mod", (*Int).Mod, func(x, y *big.Int) *big.Int {
		if y.Sign() == 0 {
			return new(big.Int)
		}
		return new(big.Int).Mod(x, y)
	})
}

// sbig converts a 256-bit word to its signed big.Int interpretation.
func sbig(x *Int) *big.Int {
	b := toBig(x)
	if x.Sign() < 0 {
		b.Sub(b, twoTo256)
	}
	return b
}

func TestSDiv(t *testing.T) {
	checkBinop(t, "SDiv", (*Int).SDiv, func(x, y *big.Int) *big.Int {
		xs, ys := signedRef(x), signedRef(y)
		if ys.Sign() == 0 {
			return new(big.Int)
		}
		return new(big.Int).Quo(xs, ys)
	})
}

func TestSMod(t *testing.T) {
	checkBinop(t, "SMod", (*Int).SMod, func(x, y *big.Int) *big.Int {
		xs, ys := signedRef(x), signedRef(y)
		if ys.Sign() == 0 {
			return new(big.Int)
		}
		return new(big.Int).Rem(xs, ys)
	})
}

// signedRef reinterprets an unsigned 256-bit big.Int as signed two's
// complement.
func signedRef(x *big.Int) *big.Int {
	if x.Bit(255) == 1 {
		return new(big.Int).Sub(x, twoTo256)
	}
	return new(big.Int).Set(x)
}

func TestExp(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		base := randInt(r)
		exp := NewInt(uint64(r.Intn(300)))
		if i%5 == 0 {
			exp = randInt(r) // occasionally full-width exponents
		}
		want := fromBigMod(new(big.Int).Exp(toBig(base), toBig(exp), twoTo256))
		got := new(Int).Exp(base, exp)
		if !got.Eq(want) {
			t.Fatalf("Exp(%s, %s) = %s, want %s", base.Hex(), exp.Hex(), got.Hex(), want.Hex())
		}
	}
}

func TestAddMod(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		x, y, m := randInt(r), randInt(r), randInt(r)
		var want *Int
		if m.IsZero() {
			want = NewInt(0)
		} else {
			s := new(big.Int).Add(toBig(x), toBig(y))
			want = fromBigMod(s.Mod(s, toBig(m)))
		}
		got := new(Int).AddMod(x, y, m)
		if !got.Eq(want) {
			t.Fatalf("AddMod(%s,%s,%s) = %s, want %s", x.Hex(), y.Hex(), m.Hex(), got.Hex(), want.Hex())
		}
	}
}

func TestMulMod(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		x, y, m := randInt(r), randInt(r), randInt(r)
		var want *Int
		if m.IsZero() {
			want = NewInt(0)
		} else {
			p := new(big.Int).Mul(toBig(x), toBig(y))
			want = fromBigMod(p.Mod(p, toBig(m)))
		}
		got := new(Int).MulMod(x, y, m)
		if !got.Eq(want) {
			t.Fatalf("MulMod(%s,%s,%s) = %s, want %s", x.Hex(), y.Hex(), m.Hex(), got.Hex(), want.Hex())
		}
	}
}

func TestSignExtend(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 2000; i++ {
		x := randInt(r)
		back := NewInt(uint64(r.Intn(35)))
		got := new(Int).SignExtend(back, x)

		// Reference: take the low (back+1)*8 bits, sign extend.
		want := new(big.Int).Set(toBig(x))
		if back[0] < 31 {
			nbits := uint(back[0]+1) * 8
			mask := new(big.Int).Lsh(big.NewInt(1), nbits)
			mask.Sub(mask, big.NewInt(1))
			low := new(big.Int).And(want, mask)
			if low.Bit(int(nbits-1)) == 1 {
				low.Sub(low, new(big.Int).Lsh(big.NewInt(1), nbits))
			}
			want = low
		}
		wantInt := fromBigMod(want)
		if !got.Eq(wantInt) {
			t.Fatalf("SignExtend(%d, %s) = %s, want %s", back[0], x.Hex(), got.Hex(), wantInt.Hex())
		}
	}
}

func TestByte(t *testing.T) {
	x := MustFromHex("0x0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20")
	for i := uint64(0); i < 32; i++ {
		got := new(Int).Byte(NewInt(i), x)
		if got.Uint64() != i+1 {
			t.Fatalf("Byte(%d) = %d, want %d", i, got.Uint64(), i+1)
		}
	}
	if got := new(Int).Byte(NewInt(32), x); !got.IsZero() {
		t.Fatalf("Byte(32) = %s, want 0", got.Hex())
	}
	if got := new(Int).Byte(&Int{0, 1, 0, 0}, x); !got.IsZero() {
		t.Fatalf("Byte(2^64) = %s, want 0", got.Hex())
	}
}

func TestShifts(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		x := randInt(r)
		n := uint(r.Intn(300))
		gotL := new(Int).Lsh(x, n)
		wantL := fromBigMod(new(big.Int).Lsh(toBig(x), n))
		if !gotL.Eq(wantL) {
			t.Fatalf("Lsh(%s, %d) = %s, want %s", x.Hex(), n, gotL.Hex(), wantL.Hex())
		}
		gotR := new(Int).Rsh(x, n)
		wantR := fromBigMod(new(big.Int).Rsh(toBig(x), n))
		if !gotR.Eq(wantR) {
			t.Fatalf("Rsh(%s, %d) = %s, want %s", x.Hex(), n, gotR.Hex(), wantR.Hex())
		}
		gotS := new(Int).SRsh(x, n)
		wantSBig := new(big.Int).Rsh(sbig(x), n)
		wantS := fromBigMod(wantSBig)
		if !gotS.Eq(wantS) {
			t.Fatalf("SRsh(%s, %d) = %s, want %s", x.Hex(), n, gotS.Hex(), wantS.Hex())
		}
	}
}

func TestShiftOperandOrder(t *testing.T) {
	// EVM semantics: SHL(shift, value).
	v := NewInt(1)
	if got := new(Int).Shl(NewInt(4), v); got.Uint64() != 16 {
		t.Fatalf("Shl(4, 1) = %s, want 16", got.Dec())
	}
	if got := new(Int).Shr(NewInt(4), NewInt(32)); got.Uint64() != 2 {
		t.Fatalf("Shr(4, 32) = %s, want 2", got.Dec())
	}
	minus1 := new(Int).SetAllOnes()
	if got := new(Int).Sar(NewInt(255), minus1); !got.Eq(minus1) {
		t.Fatalf("Sar(255, -1) = %s, want -1", got.Hex())
	}
	if got := new(Int).Sar(NewInt(300), minus1); !got.Eq(minus1) {
		t.Fatalf("Sar(300, -1) = %s, want -1", got.Hex())
	}
	if got := new(Int).Sar(NewInt(300), NewInt(5)); !got.IsZero() {
		t.Fatalf("Sar(300, 5) = %s, want 0", got.Hex())
	}
}

func TestComparisons(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 3000; i++ {
		x, y := randInt(r), randInt(r)
		if got, want := x.Lt(y), toBig(x).Cmp(toBig(y)) < 0; got != want {
			t.Fatalf("Lt(%s,%s) = %v", x.Hex(), y.Hex(), got)
		}
		if got, want := x.Gt(y), toBig(x).Cmp(toBig(y)) > 0; got != want {
			t.Fatalf("Gt(%s,%s) = %v", x.Hex(), y.Hex(), got)
		}
		if got, want := x.Slt(y), sbig(x).Cmp(sbig(y)) < 0; got != want {
			t.Fatalf("Slt(%s,%s) = %v", x.Hex(), y.Hex(), got)
		}
		if got, want := x.Sgt(y), sbig(x).Cmp(sbig(y)) > 0; got != want {
			t.Fatalf("Sgt(%s,%s) = %v", x.Hex(), y.Hex(), got)
		}
	}
}

func TestBitwise(t *testing.T) {
	checkBinop(t, "And", (*Int).And, func(x, y *big.Int) *big.Int { return new(big.Int).And(x, y) })
	checkBinop(t, "Or", (*Int).Or, func(x, y *big.Int) *big.Int { return new(big.Int).Or(x, y) })
	checkBinop(t, "Xor", (*Int).Xor, func(x, y *big.Int) *big.Int { return new(big.Int).Xor(x, y) })
}

func TestNot(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 1000; i++ {
		x := randInt(r)
		got := new(Int).Not(x)
		// ^x == 2^256 - 1 - x
		want := fromBigMod(new(big.Int).Sub(new(big.Int).Sub(twoTo256, big.NewInt(1)), toBig(x)))
		if !got.Eq(want) {
			t.Fatalf("Not(%s) = %s, want %s", x.Hex(), got.Hex(), want.Hex())
		}
	}
}

func TestHexParsing(t *testing.T) {
	tests := []struct {
		in      string
		want    uint64
		wantErr bool
	}{
		{"0x0", 0, false},
		{"0x1", 1, false},
		{"0xff", 255, false},
		{"FF", 255, false},
		{"0xDeadBeef", 0xdeadbeef, false},
		{"", 0, true},
		{"0x", 0, true},
		{"0xzz", 0, true},
	}
	for _, tc := range tests {
		z, err := FromHex(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Fatalf("FromHex(%q): want error, got %s", tc.in, z.Hex())
			}
			continue
		}
		if err != nil {
			t.Fatalf("FromHex(%q): %v", tc.in, err)
		}
		if z.Uint64() != tc.want {
			t.Fatalf("FromHex(%q) = %d, want %d", tc.in, z.Uint64(), tc.want)
		}
	}
	if _, err := FromHex("0x" + string(make([]byte, 65))); err == nil {
		t.Fatal("FromHex should reject >64 digits")
	}
}

func TestHexRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 1000; i++ {
		x := randInt(r)
		y, err := FromHex(x.Hex())
		if err != nil {
			t.Fatalf("FromHex(%q): %v", x.Hex(), err)
		}
		if !y.Eq(x) {
			t.Fatalf("hex round trip %s -> %s", x.Hex(), y.Hex())
		}
	}
}

func TestDecimal(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 500; i++ {
		x := randInt(r)
		want := toBig(x).String()
		if got := x.Dec(); got != want {
			t.Fatalf("Dec(%s) = %s, want %s", x.Hex(), got, want)
		}
	}
}

func TestBitLen(t *testing.T) {
	tests := []struct {
		in   *Int
		want int
	}{
		{NewInt(0), 0},
		{NewInt(1), 1},
		{NewInt(255), 8},
		{NewInt(256), 9},
		{&Int{0, 1, 0, 0}, 65},
		{new(Int).SetAllOnes(), 256},
	}
	for _, tc := range tests {
		if got := tc.in.BitLen(); got != tc.want {
			t.Fatalf("BitLen(%s) = %d, want %d", tc.in.Hex(), got, tc.want)
		}
	}
}

func TestNegIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 1000; i++ {
		x := randInt(r)
		var sum Int
		sum.Add(x, new(Int).Neg(x))
		if !sum.IsZero() {
			t.Fatalf("x + (-x) != 0 for %s", x.Hex())
		}
	}
}

func TestDivModIdentityQuick(t *testing.T) {
	// Property: x == q*y + r with r < y whenever y != 0.
	f := func(a, b, c, d, e, f2, g, h uint64) bool {
		x := &Int{a, b, c, d}
		y := &Int{e, f2, g, h}
		if y.IsZero() {
			return true
		}
		var q, r Int
		q.DivMod(x, y, &r)
		if !r.Lt(y) {
			return false
		}
		var back Int
		back.Mul(&q, y)
		back.Add(&back, &r)
		return back.Eq(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestAddCommutativeQuick(t *testing.T) {
	f := func(a, b, c, d, e, f2, g, h uint64) bool {
		x := &Int{a, b, c, d}
		y := &Int{e, f2, g, h}
		var l, r Int
		l.Add(x, y)
		r.Add(y, x)
		return l.Eq(&r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMulDistributesQuick(t *testing.T) {
	// Property: x*(y+z) == x*y + x*z (mod 2^256).
	f := func(a, b, c, d, e, f2, g, h, i, j, k, l uint64) bool {
		x := &Int{a, b, c, d}
		y := &Int{e, f2, g, h}
		z := &Int{i, j, k, l}
		var sum, left, xy, xz, right Int
		sum.Add(y, z)
		left.Mul(x, &sum)
		xy.Mul(x, y)
		xz.Mul(x, z)
		right.Add(&xy, &xz)
		return left.Eq(&right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUint64Capped(t *testing.T) {
	if got := NewInt(5).Uint64Capped(10); got != 5 {
		t.Fatalf("got %d, want 5", got)
	}
	if got := NewInt(50).Uint64Capped(10); got != 10 {
		t.Fatalf("got %d, want 10", got)
	}
	big := &Int{0, 1, 0, 0}
	if got := big.Uint64Capped(10); got != 10 {
		t.Fatalf("got %d, want 10", got)
	}
}

func BenchmarkAdd(b *testing.B) {
	x := MustFromHex("0xf123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	y := MustFromHex("0xfedcba9876543210fedcba9876543210fedcba9876543210fedcba9876543210")
	z := new(Int)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Add(x, y)
	}
}

func BenchmarkMul(b *testing.B) {
	x := MustFromHex("0xf123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	y := MustFromHex("0xfedcba9876543210fedcba9876543210fedcba9876543210fedcba9876543210")
	z := new(Int)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Mul(x, y)
	}
}

func BenchmarkDiv(b *testing.B) {
	x := MustFromHex("0xf123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	y := MustFromHex("0xfedcba9876543210fedcba98765432")
	z := new(Int)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Div(x, y)
	}
}

func BenchmarkMulMod(b *testing.B) {
	x := MustFromHex("0xf123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	y := MustFromHex("0xfedcba9876543210fedcba9876543210fedcba9876543210fedcba9876543210")
	m := MustFromHex("0xfffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
	z := new(Int)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.MulMod(x, y, m)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewInt(7)
	b := a.Clone()
	b.SetUint64(9)
	if a.Uint64() != 7 {
		t.Fatal("Clone aliased storage")
	}
}

func TestSignValues(t *testing.T) {
	if NewInt(0).Sign() != 0 {
		t.Fatal("zero sign")
	}
	if NewInt(5).Sign() != 1 {
		t.Fatal("positive sign")
	}
	neg := new(Int).SetAllOnes() // -1 two's complement
	if neg.Sign() != -1 {
		t.Fatal("negative sign")
	}
}

func TestBytesMinimality(t *testing.T) {
	if got := NewInt(0).Bytes(); len(got) != 0 {
		t.Fatalf("zero bytes %x", got)
	}
	if got := NewInt(0x1ff).Bytes(); len(got) != 2 || got[0] != 0x01 || got[1] != 0xff {
		t.Fatalf("0x1ff bytes %x", got)
	}
}
