package types

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestBytesToHashPadding(t *testing.T) {
	h := BytesToHash([]byte{0x01, 0x02})
	if h[30] != 0x01 || h[31] != 0x02 {
		t.Fatalf("short input not right-aligned: %x", h)
	}
	for i := 0; i < 30; i++ {
		if h[i] != 0 {
			t.Fatalf("padding byte %d not zero", i)
		}
	}
	long := make([]byte, 40)
	for i := range long {
		long[i] = byte(i)
	}
	h2 := BytesToHash(long)
	if h2[0] != 8 || h2[31] != 39 {
		t.Fatalf("long input not truncated from the left: %x", h2)
	}
}

func TestHashHexRoundTrip(t *testing.T) {
	h := HashData([]byte("round trip"))
	parsed, err := HexToHash(h.Hex())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != h {
		t.Fatal("hash hex round trip failed")
	}
	if !strings.HasPrefix(h.Hex(), "0x") {
		t.Fatal("Hex missing 0x prefix")
	}
}

func TestHexToHashErrors(t *testing.T) {
	if _, err := HexToHash("0x1234"); err == nil {
		t.Fatal("short hex accepted")
	}
	if _, err := HexToHash("0x" + strings.Repeat("zz", 32)); err == nil {
		t.Fatal("non-hex accepted")
	}
}

func TestAddressHexRoundTrip(t *testing.T) {
	a := BytesToAddress([]byte{0xde, 0xad, 0xbe, 0xef})
	parsed, err := HexToAddress(a.Hex())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != a {
		t.Fatal("address hex round trip failed")
	}
}

func TestAddressHashForm(t *testing.T) {
	a := MustHexToAddress("0x00112233445566778899aabbccddeeff00112233")
	h := BytesToHash(a[:])
	// The address occupies the low 20 bytes of the 32-byte word.
	if BytesToAddress(h[12:]) != a {
		t.Fatal("address word form misaligned")
	}
	for i := 0; i < 12; i++ {
		if h[i] != 0 {
			t.Fatal("address word padding not zero")
		}
	}
}

func TestIsZero(t *testing.T) {
	if !(Hash{}).IsZero() {
		t.Fatal("zero hash not zero")
	}
	if !(Address{}).IsZero() {
		t.Fatal("zero address not zero")
	}
	if HashData([]byte("x")).IsZero() {
		t.Fatal("non-zero hash reported zero")
	}
}

func TestHashConcatMatchesHashData(t *testing.T) {
	a, b := []byte("hello "), []byte("world")
	if HashConcat(a, b) != HashData([]byte("hello world")) {
		t.Fatal("HashConcat mismatch")
	}
}

func TestContractAddressDistinct(t *testing.T) {
	sender := MustHexToAddress("0x1111111111111111111111111111111111111111")
	seen := make(map[Address]bool)
	for nonce := uint64(0); nonce < 100; nonce++ {
		a := ContractAddress(sender, nonce)
		if seen[a] {
			t.Fatalf("contract address collision at nonce %d", nonce)
		}
		seen[a] = true
	}
	other := MustHexToAddress("0x2222222222222222222222222222222222222222")
	if ContractAddress(sender, 0) == ContractAddress(other, 0) {
		t.Fatal("different senders produced same contract address")
	}
}

func TestContractAddressQuick(t *testing.T) {
	// Property: derivation is a pure function.
	f := func(raw [20]byte, nonce uint64) bool {
		a := Address(raw)
		return ContractAddress(a, nonce) == ContractAddress(a, nonce)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
