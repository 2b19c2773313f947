package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzFrame feeds arbitrary byte streams to the frame reader: it must
// never panic, never return a frame whose CRC did not verify, and for
// streams we built ourselves it must return exactly what we wrote.
func FuzzFrame(f *testing.F) {
	seed, _ := EncodeFrame(1, MsgHello, Hello{Node: -1, MinProto: 1, MaxProto: 1}.Encode())
	f.Add(seed)
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add([]byte("ISWF"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			_, _, payload, err := ReadFrame(r)
			if err == io.EOF {
				break
			}
			if errors.Is(err, ErrCRC) {
				continue // recoverable: keep reading, stream stays framed
			}
			if err != nil {
				break // fatal framing error: stream torn down
			}
			// A frame that verified must re-encode to valid bytes.
			if len(payload) > MaxPayload {
				t.Fatalf("accepted payload of %d bytes", len(payload))
			}
		}

		// Whatever the fuzzer handed us, wrapping it in a frame must
		// round-trip exactly (bounded so the fuzzer can't OOM us).
		if len(data) > 1<<16 {
			return
		}
		frame, err := EncodeFrame(2, MsgUpload, data)
		if err != nil {
			t.Fatalf("EncodeFrame: %v", err)
		}
		v, typ, payload, err := ReadFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if v != 2 || typ != MsgUpload || !bytes.Equal(payload, data) {
			t.Fatal("round trip mismatch")
		}

		// And a single flipped bit anywhere past the framing fields must
		// be caught by the CRC.
		if len(frame) > HeaderLen {
			bad := append([]byte(nil), frame...)
			bad[HeaderLen] ^= 0x01
			if _, _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrCRC) {
				t.Fatalf("payload bit flip escaped the CRC: %v", err)
			}
		}
	})
}

// FuzzDecodeMessages throws arbitrary payloads at every message decoder;
// none may panic.
func FuzzDecodeMessages(f *testing.F) {
	f.Add([]byte{})
	f.Add(Welcome{Proto: 1, Cfg: NodeConfig{LinkName: "wifi"}}.Encode())
	f.Add(Capture{Round: 1, N: 8, Severity: 0.7}.Encode())
	f.Add(Deploy{Round: 1, Severity: 0.7, Bundle: []byte{1, 2}}.Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeHello(data)
		_, _ = DecodeWelcome(data)
		_, _ = DecodeCapture(data)
		_, _ = DecodeUpload(data)
		_, _ = DecodeDeploy(data)
		_, _ = DecodeDeployResult(data)
		_, _ = DecodeStateSave(data)
		_, _, _ = DecodeStateBlob(data)
		_, _, _ = DecodeStateLoaded(data)
		_, _ = DecodeError(data)
	})
}
