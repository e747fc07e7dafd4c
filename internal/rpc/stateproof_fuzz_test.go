package rpc

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"tinyevm"
	"tinyevm/internal/types"
)

// proofLeaf is one genuine entry of the state map: an account's digest
// and its sum.
type proofLeaf struct {
	digest types.Hash
	sum    uint64
}

// The path blob the fuzzer mutates: the proven node's child digests,
// the root, then per ancestor step
//
//	keyLen u8 | key | valueHash[32] | sum u64 | siblingHash[32] |
//	siblingSum u64 | right u8
const (
	digestBytes = 32 + 8
	pathHead    = 3 * digestBytes
)

func appendDigest(buf []byte, hexHash string, sum uint64) []byte {
	h, _ := types.HexToHash(hexHash)
	return binary.BigEndian.AppendUint64(append(buf, h[:]...), sum)
}

func readDigest(b []byte) (string, uint64) {
	return types.Hash(b[:32]).Hex(), binary.BigEndian.Uint64(b[32:digestBytes])
}

// encodePath flattens a wire proof's path and root into the blob.
func encodePath(p *StateProof) []byte {
	buf := appendDigest(nil, p.LeftHash, p.LeftSum)
	buf = appendDigest(buf, p.RightHash, p.RightSum)
	buf = appendDigest(buf, p.RootHash, p.RootSum)
	for _, st := range p.Steps {
		key, _ := hex.DecodeString(st.Key)
		buf = append(append(buf, byte(len(key))), key...)
		buf = appendDigest(buf, st.ValueHash, st.Sum)
		buf = appendDigest(buf, st.SiblingHash, st.SiblingSum)
		right := byte(0)
		if st.Right {
			right = 1
		}
		buf = append(buf, right)
	}
	return buf
}

// decodePath fills p's path and root from the blob, reporting whether
// the blob had that shape.
func decodePath(b []byte, p *StateProof) bool {
	if len(b) < pathHead {
		return false
	}
	p.LeftHash, p.LeftSum = readDigest(b)
	p.RightHash, p.RightSum = readDigest(b[digestBytes:])
	p.RootHash, p.RootSum = readDigest(b[2*digestBytes:])
	p.Steps = nil
	for b = b[pathHead:]; len(b) > 0; {
		n := int(b[0])
		if len(b) < 1+n+2*digestBytes+1 {
			return false
		}
		st := StateProofStep{Key: hex.EncodeToString(b[1 : 1+n])}
		b = b[1+n:]
		st.ValueHash, st.Sum = readDigest(b)
		st.SiblingHash, st.SiblingSum = readDigest(b[digestBytes:])
		st.Right = b[2*digestBytes] != 0
		p.Steps = append(p.Steps, st)
		b = b[2*digestBytes+1:]
	}
	return true
}

// FuzzVerifyStateProof drives the light client's whole verification
// path — VerifyStateProof, decodeMapProof, mst.VerifyMapProof and
// chain.VerifyAccountRecord — with proofs a hostile daemon could send:
// the genuine proofs of an MST service with their account record,
// leaf digest, path and sum mutated, the commitment held to the genuine
// one. Nothing may panic, and a proof that verifies must name one of
// the map's genuine (address, digest, sum) entries.
func FuzzVerifyStateProof(f *testing.F) {
	ctx := context.Background()
	svc, provider, err := tinyevm.NewService("provider", tinyevm.WithMSTCommitment(true))
	if err != nil {
		f.Fatal(err)
	}
	defer svc.Close()
	provider.RegisterSensor(tinyevm.SensorTemperature, func(uint64) (uint64, error) { return 2150, nil })
	for i, name := range []string{"car", "bike", "truck"} {
		n, err := svc.AddNode(ctx, name)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := n.Deposit(ctx, uint64(1_000*(i+1))); err != nil {
			f.Fatal(err)
		}
	}

	st := svc.System().Chain.State()
	genuine := make(map[types.Address]proofLeaf)
	var addrs []types.Address
	for _, addr := range st.Addresses() {
		if d, ok := st.AccountDigest(addr); ok {
			genuine[addr] = proofLeaf{d, st.Balance(addr).Uint64()}
			addrs = append(addrs, addr)
		}
	}
	// One address past the genuine ones is not in the map at all.
	addrs = append(addrs, types.Address{0xde, 0xad})

	var commitment string
	for i, addr := range addrs[:len(addrs)-1] {
		ap, err := svc.StateProof(ctx, addr)
		if err != nil {
			f.Fatal(err)
		}
		p := toStateProof(ap)
		if err := VerifyStateProof(&p); err != nil {
			f.Fatalf("genuine proof of %s: %v", p.Address, err)
		}
		commitment = p.Commitment
		account, _ := hex.DecodeString(p.Account)
		digest, _ := types.HexToHash(p.AccountDigest)
		f.Add(uint8(i), account, digest[:], encodePath(&p), p.Sum)
	}

	f.Fuzz(func(t *testing.T, which uint8, account, digest, path []byte, sum uint64) {
		addr := addrs[int(which)%len(addrs)]
		p := StateProof{
			Address:       addr.Hex(),
			AccountDigest: hex.EncodeToString(digest),
			Sum:           sum,
			Account:       hex.EncodeToString(account),
			Commitment:    commitment,
		}
		if !decodePath(path, &p) {
			return
		}
		if VerifyStateProof(&p) != nil {
			return
		}
		d, _ := types.HexToHash(p.AccountDigest)
		if leaf, ok := genuine[addr]; !ok || leaf.digest != d || leaf.sum != sum {
			t.Fatalf("a forged proof verified: %s digest %s sum %d", addr.Hex(), d.Hex(), sum)
		}
	})
}
