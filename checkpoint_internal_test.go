package tinyevm

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"tinyevm/internal/protocol"
	"tinyevm/internal/secp256k1"
)

// goldenCheckpoint is the checkpoint the format pin holds: every shape
// of checkpointed state (pending HTLC, revealed preimage, closed
// channel, deposits, commits, fraud, an active exit, sensors).
func goldenCheckpoint(t testing.TB) []byte {
	t.Helper()
	text, err := os.ReadFile("testdata/format/checkpoint.golden")
	if err != nil {
		t.Fatal(err)
	}
	data, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkCheckpointBytes decodes data and, when it decodes, requires the
// decoder to have been exact and frugal: the record re-encodes to the
// same bytes and decodes back to the same value, it holds no more
// elements than data has room for, and one more byte is refused.
func checkCheckpointBytes(t testing.TB, data []byte) (*checkpointRecord, error) {
	t.Helper()
	ck, err := decodeCheckpoint(data)
	if err != nil {
		if !errors.Is(err, errBadRecord) {
			t.Fatalf("untyped decode error %v", err)
		}
		return nil, err
	}
	again := ck.encode()
	if !bytes.Equal(again, data) {
		t.Fatalf("checkpoint is not canonical:\n in %x\nout %x", data, again)
	}
	back, err := decodeCheckpoint(again)
	if err != nil || !reflect.DeepEqual(back, ck) {
		t.Fatalf("decode(encode(x)) != x (%v)", err)
	}
	elems := len(ck.Nodes) + len(ck.Sensors) + len(ck.Template.Deposits) + len(ck.Template.Commits) + len(ck.Template.Fraud)
	for i := range ck.Nodes {
		elems += len(ck.Nodes[i].Channels) + len(ck.Nodes[i].Log)
	}
	if elems > len(data) {
		t.Fatalf("%d elements decoded out of %d bytes", elems, len(data))
	}
	if _, err := decodeCheckpoint(append(bytes.Clone(data), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	return ck, nil
}

func TestCheckpointCodecRoundTrip(t *testing.T) {
	ck, err := checkCheckpointBytes(t, goldenCheckpoint(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Nodes) != 3 || ck.Template.Exit == nil || len(ck.Template.Fraud) == 0 || len(ck.Sensors) != 3 {
		t.Fatalf("golden checkpoint lost its shape: %d nodes, exit %v, %d fraud, %d sensors",
			len(ck.Nodes), ck.Template.Exit, len(ck.Template.Fraud), len(ck.Sensors))
	}
	if _, err := checkCheckpointBytes(t, (&checkpointRecord{}).encode()); err != nil {
		t.Fatalf("empty checkpoint: %v", err)
	}
	for _, bad := range [][]byte{nil, []byte(`{"seq":27}`), goldenCheckpoint(t)[:100], paddedPayment(t, ck)} {
		if _, err := checkCheckpointBytes(t, bad); err == nil {
			t.Fatalf("%.20q decoded", bad)
		}
	}
}

// paddedPayment is the golden checkpoint with one byte appended to the
// first channel's last payment (and its length prefix grown to match):
// the record around it still frames, and the wire decoder alone would
// ignore the byte.
func paddedPayment(t *testing.T, ck *checkpointRecord) []byte {
	t.Helper()
	for _, n := range ck.Nodes {
		for _, cs := range n.Channels {
			if cs.LastPayment == nil {
				continue
			}
			enc := protocol.EncodePayment(cs.LastPayment)
			field := binary.BigEndian.AppendUint32(nil, uint32(len(enc)))
			padded := binary.BigEndian.AppendUint32(nil, uint32(len(enc)+1))
			golden := goldenCheckpoint(t)
			at := bytes.Index(golden, append(field, enc...))
			if at < 0 {
				t.Fatal("the payment's encoding is not in the golden checkpoint")
			}
			out := append(bytes.Clone(golden[:at]), padded...)
			out = append(append(out, enc...), 0)
			return append(out, golden[at+len(field)+len(enc):]...)
		}
	}
	t.Fatal("no channel in the golden checkpoint holds a payment")
	return nil
}

// FuzzCheckpointDecode: no input panics the checkpoint decoder or makes
// it allocate beyond what the input can hold, and whatever decodes is
// exactly what the encoder writes.
func FuzzCheckpointDecode(f *testing.F) {
	golden := goldenCheckpoint(f)
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add((&checkpointRecord{}).encode())
	// One of every element in a few hundred bytes, where the golden one
	// is 12 KB: mutations land on structure instead of on payload. The
	// nested objects are real — a signed payment, a pending HTLC, its
	// preimage and a doubly-signed final state — so they decode.
	var a Address
	h := Hash(bytes.Repeat([]byte{0xb2}, 32))
	copy(a[:], bytes.Repeat([]byte{0xa1}, 20))
	key := secp256k1.DeterministicKey("checkpoint-fuzz-seed")
	sign := func(digest Hash) *secp256k1.Signature {
		sig, err := key.Sign(digest)
		if err != nil {
			f.Fatal(err)
		}
		return sig
	}
	preimage := Secret(h)
	pay := &Payment{Template: a, Channel: a, ChannelID: 1, Seq: 2, Cumulative: 300, SensorValue: 2150}
	pay.Sig = sign(pay.Digest())
	htlc := &Payment{Template: a, Channel: a, ChannelID: 1, Seq: 3, Cumulative: 400, SensorValue: 2150, HashLock: preimage.Lock()}
	htlc.Sig = sign(htlc.Digest())
	final := protocol.FinalStateFromPayment(pay, key.Address(), key.Address())
	final.SigReceiver = sign(final.Digest())
	small := (&checkpointRecord{
		Seq: 300, Height: 64, ChainState: blobField{2, 0, 0, 0, 0},
		Template: protocol.TemplateSnapshot{
			Deposits: []protocol.TemplateDeposit{{Addr: a, Amount: 5}},
			Commits:  []protocol.TemplateCommit{{Sender: a, ID: 1, State: *final, SubmittedBy: a, Block: 3}},
			Fraud:    []protocol.TemplateFraud{{Addr: a, Sender: a, ID: 1}},
			Exit:     &protocol.ExitRequest{By: a, Deadline: 70}, Settled: true,
		},
		Nodes: []ckptNode{{
			Name: "lot", LocalTemplate: a, DeviceState: blobField{2, 0, 0, 0, 0}, LossDraws: 9,
			Channels: []*ChannelState{{ID: 1, WireID: 1, Template: a, Addr: a, Peer: a, Opener: a, Role: 1,
				Deposit: 1 << 40, Seq: 2, Cumulative: 300, LastPayment: pay, PendingHTLC: htlc, PendingInbound: true,
				LastPreimage: preimage, Final: final, SensorValue: 2150}},
			Log: []protocol.LogEntry{{Index: 1, Kind: 2, ChannelID: 1, Seq: 2, Amount: 300, Prev: h, Hash: h}},
		}},
		Sensors: []ckptSensor{{Node: "lot", ID: 1, Value: 2150}},
	}).encode()
	if _, err := decodeCheckpoint(small); err != nil {
		f.Fatalf("the small seed does not decode: %v", err)
	}
	f.Add(small)
	f.Add([]byte(`{"seq":27,"height":6}`))
	f.Add([]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCheckpointBytes(t, data) //nolint:errcheck // refusing is fine; the helper fails the test on a broken property
	})
}
