package secp256k1

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"tinyevm/internal/types"
)

// testdata/vectors.json was written by the math/big implementation at
// the commit before the fixed-limb rewrite (see its note field): 256
// seeded (key, digest) pairs, the edge digests 0, 1, N-1, N, N+1 and
// 2^256-1 under the edge keys 1 and N-1 and two seeded keys, and the
// edge keys over seeded digests. Every byte must reproduce.
func TestVectors(t *testing.T) {
	raw, err := os.ReadFile("testdata/vectors.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Vectors []struct {
			Key, Digest, Sig, Address, PubKey string
		}
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Vectors) < 256 {
		t.Fatalf("only %d vectors", len(file.Vectors))
	}
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for i, v := range file.Vectors {
		key, err := PrivateKeyFromBytes(unhex(v.Key))
		if err != nil {
			t.Fatalf("vector %d: %v", i, err)
		}
		digest := types.BytesToHash(unhex(v.Digest))
		sig, err := key.Sign(digest)
		if err != nil {
			t.Fatalf("vector %d: %v", i, err)
		}
		if got := sig.Serialize(); !bytes.Equal(got, unhex(v.Sig)) {
			t.Fatalf("vector %d: signature %x, want %s", i, got, v.Sig)
		}
		if got := key.PublicKey.SerializeCompressed(); !bytes.Equal(got, unhex(v.PubKey)) {
			t.Fatalf("vector %d: public key %x, want %s", i, got, v.PubKey)
		}
		parsed, err := ParseSignature(unhex(v.Sig))
		if err != nil {
			t.Fatalf("vector %d: %v", i, err)
		}
		addr, err := RecoverAddress(digest, parsed)
		if err != nil {
			t.Fatalf("vector %d: %v", i, err)
		}
		if !bytes.Equal(addr[:], unhex(v.Address)) || addr != key.PublicKey.Address() {
			t.Fatalf("vector %d: recovered %x, want %s", i, addr, v.Address)
		}
		if !Verify(&key.PublicKey, digest, parsed) {
			t.Fatalf("vector %d: signature does not verify", i)
		}
	}
}
