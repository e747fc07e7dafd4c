package protocol

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"tinyevm/internal/secp256k1"
	"tinyevm/internal/types"
)

// seedFrames returns one encoding of every radio message, populated
// enough to take every encoder branch: nil and non-nil signatures, a
// plain and a hash-locked payment, sensor data with no and with three
// readings.
func seedFrames(t testing.TB) [][]byte {
	sign := func(seed string, digest types.Hash) *secp256k1.Signature {
		sig, err := secp256k1.DeterministicKey(seed).Sign(digest)
		if err != nil {
			t.Fatalf("sign seed frame: %v", err)
		}
		return sig
	}
	from := secp256k1.DeterministicKey("wire-car").Address()
	pay := &Payment{
		Template: types.Address{0x7e}, Channel: types.Address{0xc4},
		ChannelID: 3, Seq: 9, Cumulative: 1234, SensorValue: 2150,
	}
	signed := *pay
	signed.Sig = sign("wire-car", pay.Digest())
	locked := *pay
	locked.Seq, locked.HashLock = 10, PreimageHash(Secret{0x5e})
	locked.Sig = sign("wire-car", locked.Digest())

	fs := FinalStateFromPayment(&signed, from, secp256k1.DeterministicKey("wire-lot").Address())
	both := *fs
	both.SigReceiver = sign("wire-lot", fs.Digest())
	unsigned := *fs
	unsigned.SigSender = nil

	return [][]byte{
		EncodeSensorData(&SensorData{From: from}),
		EncodeSensorData(&SensorData{From: from, Readings: []SensorReading{{1, 2150}, {2, 40}, {1 << 40, 1<<64 - 1}}}),
		EncodeChannelOpen(&ChannelOpen{
			Template: pay.Template, Channel: pay.Channel, ChannelID: 3, Deposit: 500_000, SensorValue: 2150,
		}),
		EncodePayment(pay),
		EncodePayment(&signed),
		EncodePayment(&locked),
		EncodeFinalState(MsgCloseRequest, &unsigned),
		EncodeFinalState(MsgCloseRequest, fs),
		EncodeFinalState(MsgCloseAck, &both),
		EncodeHTLCClaim(&HTLCClaim{Template: pay.Template, ChannelID: 3, Seq: 10, Preimage: Secret{0x5e}}),
	}
}

// decodeFrame parses a frame with the decoder its type byte names and
// returns the message and its re-encoding.
func decodeFrame(frame []byte) (msg any, again []byte, err error) {
	typ, err := PeekType(frame)
	if err != nil {
		return nil, nil, err
	}
	switch typ {
	case MsgSensorData:
		m, err := DecodeSensorData(frame)
		if err != nil {
			return nil, nil, err
		}
		return m, EncodeSensorData(m), nil
	case MsgChannelOpen:
		m, err := DecodeChannelOpen(frame)
		if err != nil {
			return nil, nil, err
		}
		return m, EncodeChannelOpen(m), nil
	case MsgPayment:
		m, err := DecodePayment(frame)
		if err != nil {
			return nil, nil, err
		}
		return m, EncodePayment(m), nil
	case MsgCloseRequest, MsgCloseAck:
		t, m, err := DecodeFinalState(frame)
		if err != nil {
			return nil, nil, err
		}
		return m, EncodeFinalState(t, m), nil
	case MsgHTLCClaim:
		m, err := DecodeHTLCClaim(frame)
		if err != nil {
			return nil, nil, err
		}
		return m, EncodeHTLCClaim(m), nil
	}
	return nil, nil, ErrBadMsgType
}

// TestWireGolden holds the radio wire to testdata/wire.golden — one hex
// line per seedFrames frame, written by the commit before the codec
// moved to internal/codec — in both directions.
func TestWireGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(data))
	frames := seedFrames(t)
	if len(lines) != len(frames) {
		t.Fatalf("golden has %d frames, seedFrames %d", len(lines), len(frames))
	}
	for i, frame := range frames {
		if got := hex.EncodeToString(frame); got != lines[i] {
			t.Errorf("frame %d encodes differently:\n got %s\nwant %s", i, got, lines[i])
		}
		golden, _ := hex.DecodeString(lines[i])
		_, again, err := decodeFrame(golden)
		if err != nil {
			t.Fatalf("golden frame %d: %v", i, err)
		}
		if !bytes.Equal(again, golden) {
			t.Errorf("golden frame %d does not survive decode + encode", i)
		}
	}
}

// FuzzProtocolDecode: arbitrary radio input never panics and fails only
// with the two typed errors; an accepted frame re-encodes to a prefix of
// itself (trailing bytes are ignored) that decodes to the same message.
// The one byte allowed to differ is a signature presence flag, which is
// read as "non-zero" and written as 1.
func FuzzProtocolDecode(f *testing.F) {
	for _, frame := range seedFrames(f) {
		f.Add(frame)
		f.Add(append(bytes.Clone(frame), 0xff))
		f.Add(frame[:len(frame)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{byte(MsgSensorData), 21: 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, again, err := decodeFrame(data)
		if err != nil {
			if !errors.Is(err, ErrBadMessage) && !errors.Is(err, ErrBadMsgType) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if len(again) > len(data) {
			t.Fatalf("re-encoding is %d bytes, input %d", len(again), len(data))
		}
		for i := range again {
			if again[i] != data[i] && !(again[i] == 1 && data[i] > 1) {
				t.Fatalf("re-encoding differs at byte %d: %#02x, input %#02x", i, again[i], data[i])
			}
		}
		back, _, err := decodeFrame(again)
		if err != nil || !reflect.DeepEqual(back, msg) {
			t.Fatalf("re-encoding decodes to %+v (%v), want %+v", back, err, msg)
		}
	})
}
