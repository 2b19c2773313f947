package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"insitu/internal/dataset"
)

func TestFrameRoundTrip(t *testing.T) {
	t.Parallel()
	payloads := [][]byte{nil, {}, {0}, []byte("hello fleet"), bytes.Repeat([]byte{0xAB}, 1<<16)}
	var stream bytes.Buffer
	for i, p := range payloads {
		frame, err := EncodeFrame(1, MsgType(i+1), p)
		if err != nil {
			t.Fatalf("EncodeFrame(%d): %v", i, err)
		}
		stream.Write(frame)
	}
	for i, p := range payloads {
		v, typ, got, err := ReadFrame(&stream)
		if err != nil {
			t.Fatalf("ReadFrame(%d): %v", i, err)
		}
		if v != 1 || typ != MsgType(i+1) || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: v=%d type=%v len=%d, want v=1 type=%v len=%d",
				i, v, typ, len(got), MsgType(i+1), len(p))
		}
	}
	if _, _, _, err := ReadFrame(&stream); err != io.EOF {
		t.Fatalf("past last frame: err = %v, want io.EOF", err)
	}
}

// A corrupted frame must surface ErrCRC and leave the stream framed:
// the next frame reads back intact.
func TestFrameCorruptionIsRecoverable(t *testing.T) {
	t.Parallel()
	good, err := EncodeFrame(1, MsgDeploy, []byte("payload-one"))
	if err != nil {
		t.Fatal(err)
	}
	next, err := EncodeFrame(1, MsgCapture, []byte("payload-two"))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in every position past the length field and confirm
	// each corruption is caught and the follow-up frame still parses.
	for pos := 4; pos < len(good); pos++ {
		if pos >= 8 && pos < HeaderLen {
			continue // length field: corrupting it desyncs, tested below
		}
		bad := append([]byte(nil), good...)
		bad[pos] ^= 0x40
		stream := bytes.NewReader(append(append([]byte(nil), bad...), next...))
		if _, _, _, err := ReadFrame(stream); !errors.Is(err, ErrCRC) {
			t.Fatalf("bit flip at %d: err = %v, want ErrCRC", pos, err)
		}
		if _, typ, p, err := ReadFrame(stream); err != nil || typ != MsgCapture || string(p) != "payload-two" {
			t.Fatalf("bit flip at %d: next frame err=%v type=%v payload=%q", pos, err, typ, p)
		}
	}
}

func TestFrameBadMagicIsFatal(t *testing.T) {
	t.Parallel()
	frame, _ := EncodeFrame(1, MsgHello, nil)
	frame[0] ^= 0xFF
	_, _, _, err := ReadFrame(bytes.NewReader(frame))
	if err == nil || errors.Is(err, ErrCRC) {
		t.Fatalf("bad magic: err = %v, want fatal non-CRC error", err)
	}
}

func TestFrameOversizeLengthIsFatal(t *testing.T) {
	t.Parallel()
	frame, _ := EncodeFrame(1, MsgHello, nil)
	frame[8] = 0xFF
	frame[9] = 0xFF
	frame[10] = 0xFF
	frame[11] = 0xFF
	_, _, _, err := ReadFrame(bytes.NewReader(frame))
	if err == nil || errors.Is(err, ErrCRC) {
		t.Fatalf("oversize length: err = %v, want fatal non-CRC error", err)
	}
}

func TestReadRawFrameForwardsCorruptBytes(t *testing.T) {
	t.Parallel()
	frame, _ := EncodeFrame(1, MsgUpload, []byte("abcdef"))
	bad := append([]byte(nil), frame...)
	bad[HeaderLen] ^= 0x01 // corrupt payload; raw read must not care
	got, err := ReadRawFrame(bytes.NewReader(bad))
	if err != nil {
		t.Fatalf("ReadRawFrame: %v", err)
	}
	if !bytes.Equal(got, bad) {
		t.Fatal("raw frame bytes not preserved")
	}
}

func TestNegotiate(t *testing.T) {
	t.Parallel()
	cases := []struct {
		minA, maxA, minB, maxB uint8
		want                   uint8
		ok                     bool
	}{
		{1, 1, 1, 1, 1, true},
		{1, 3, 2, 5, 3, true},  // highest mutual
		{2, 5, 1, 3, 3, true},  // symmetric
		{1, 1, 2, 2, 0, false}, // disjoint
		{3, 1, 1, 3, 0, false}, // inverted range
		{1, 10, 4, 4, 4, true}, // pinned peer
	}
	for _, c := range cases {
		got, ok := Negotiate(c.minA, c.maxA, c.minB, c.maxB)
		if got != c.want || ok != c.ok {
			t.Fatalf("Negotiate(%d,%d,%d,%d) = (%d,%v), want (%d,%v)",
				c.minA, c.maxA, c.minB, c.maxB, got, ok, c.want, c.ok)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	t.Parallel()
	for _, h := range []Hello{
		{Node: -1, MinProto: 1, MaxProto: 1},
		{Node: 7, MinProto: 1, MaxProto: 3, Epoch: 42},
		{Node: 2, MinProto: 2, MaxProto: 2, Epoch: 1<<40 + 3},
	} {
		got, err := DecodeHello(h.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if got != h {
			t.Fatalf("got %+v, want %+v", got, h)
		}
	}
	// A proto-1 Hello (no epoch field) must still parse — the cloud
	// answers it with a negotiation Error rather than a hangup.
	old := Hello{Node: 5, MinProto: 1, MaxProto: 1}.Encode()[:6]
	got, err := DecodeHello(old)
	if err != nil {
		t.Fatalf("epoch-less hello: %v", err)
	}
	if got.Node != 5 || got.Epoch != 0 {
		t.Fatalf("epoch-less hello decoded as %+v", got)
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	t.Parallel()
	w := Welcome{
		Proto: 1,
		Node:  3,
		Epoch: 9,
		Cfg: NodeConfig{
			Kind: 2, Classes: 3, PermClasses: 4, SharedConvs: 2, Probes: 5,
			Seed: 0xDEADBEEF, InSituFrac: 0.25,
			LinkName: "wifi", LinkBandwidthBps: 2.5e6, LinkEnergyPerByte: 1e-6,
			DeployRetries: 4,
			Uplink: FaultSpec{Seed: 11, CorruptProb: 0.2, DropProb: 0.1,
				Outages: [][2]int64{{3, 9}, {20, 25}}},
			Downlink:    FaultSpec{Seed: 12, DropProb: 0.4},
			Outage:      true,
			HeartbeatMs: 750,
		},
	}
	got, err := DecodeWelcome(w.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Fatalf("got %+v, want %+v", got, w)
	}
}

func TestCaptureDeployRoundTrip(t *testing.T) {
	t.Parallel()
	c := Capture{Round: 9, N: 32, Bootstrap: true, Severity: 0.6}
	gc, err := DecodeCapture(c.Encode())
	if err != nil || gc != c {
		t.Fatalf("capture: got %+v err %v, want %+v", gc, err, c)
	}
	p := Deploy{Round: 9, Severity: 0.6, Bundle: []byte{1, 2, 3, 4, 5}}
	gp, err := DecodeDeploy(p.Encode())
	if err != nil || gp.Round != p.Round || gp.Severity != p.Severity || !bytes.Equal(gp.Bundle, p.Bundle) {
		t.Fatalf("deploy: got %+v err %v, want %+v", gp, err, p)
	}
}

func TestDeployResultRoundTrip(t *testing.T) {
	t.Parallel()
	r := DeployResult{
		Round: 5, Bytes: 123456, Attempts: 7, Retransmits: 6,
		Backoff: 12.75, Version: 4, Failed: true, NodeVersion: 3,
		Accuracy: 0.8125,
	}
	got, err := DecodeDeployResult(r.Encode())
	if err != nil || got != r {
		t.Fatalf("got %+v err %v, want %+v", got, err, r)
	}
}

// Upload batches must round-trip the exact float32 bits — the wire
// transport feeding the cloud retrainer cannot perturb a single ulp or
// remote rounds diverge from in-process ones.
func TestUploadRoundTripBitExact(t *testing.T) {
	t.Parallel()
	gen := dataset.NewGenerator(3, 42)
	samples := gen.MixedSet(5, 0.5, 0.3)
	calib := gen.MixedSet(2, 0.5, 0.3)
	u := Upload{
		Round: 3, Captured: 5, Uploaded: 5, CalibN: 2,
		UpBytes: 5 * dataset.ImageBytes, UplinkJ: 0.125, UplinkS: 2.5,
		QualityUploadFraction: 0.5, QualityErrorRecall: 0.75, QualityPrecision: 1,
		Samples: samples, Calib: calib,
	}
	payload, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeUpload(payload)
	if err != nil {
		t.Fatal(err)
	}
	checkSamples := func(name string, got, want []dataset.Sample) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d samples, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i].Label != want[i].Label || got[i].Condition != want[i].Condition {
				t.Fatalf("%s[%d]: label/condition mismatch", name, i)
			}
			if !reflect.DeepEqual(got[i].Image.Data, want[i].Image.Data) {
				t.Fatalf("%s[%d]: image bits differ", name, i)
			}
		}
	}
	checkSamples("samples", got.Samples, u.Samples)
	checkSamples("calib", got.Calib, u.Calib)
	got.Samples, got.Calib = nil, nil
	u.Samples, u.Calib = nil, nil
	if !reflect.DeepEqual(got, u) {
		t.Fatalf("scalar fields: got %+v, want %+v", got, u)
	}
}

func TestStateAndErrorRoundTrips(t *testing.T) {
	t.Parallel()
	blob := bytes.Repeat([]byte{0x5A}, 999)
	tag, got, err := DecodeStateBlob(EncodeStateBlob(9, blob))
	if err != nil || tag != 9 || !bytes.Equal(got, blob) {
		t.Fatalf("state blob: tag %d err %v", tag, err)
	}
	if gt, err := DecodeStateSave(EncodeStateSave(7)); err != nil || gt != 7 {
		t.Fatalf("state save: tag %d err %v", gt, err)
	}
	for _, s := range []string{"", "load failed: bad fingerprint"} {
		gt, gs, err := DecodeStateLoaded(EncodeStateLoaded(3, s))
		if err != nil || gt != 3 || gs != s {
			t.Fatalf("state loaded %q: got %q tag %d err %v", s, gs, gt, err)
		}
		ge, err := DecodeError(EncodeError(s))
		if err != nil || ge != s {
			t.Fatalf("error %q: got %q err %v", s, ge, err)
		}
	}
}

// Truncated and trailing-garbage payloads must error, never panic or
// silently succeed.
func TestDecodersRejectMalformedPayloads(t *testing.T) {
	t.Parallel()
	w := Welcome{Proto: 1, Node: 2, Cfg: NodeConfig{LinkName: "lte"}}
	full := w.Encode()
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeWelcome(full[:cut]); err == nil {
			t.Fatalf("truncation at %d silently decoded", cut)
		}
	}
	if _, err := DecodeWelcome(append(full, 0)); err == nil {
		t.Fatal("trailing byte silently decoded")
	}
	if _, err := DecodeHello(nil); err == nil {
		t.Fatal("empty hello silently decoded")
	}
	// NaN-free float check: a quiet NaN survives the trip bit-for-bit
	// (decoding is transparent; rejection is the applier's job).
	r := DeployResult{Backoff: math.NaN()}
	got, err := DecodeDeployResult(r.Encode())
	if err != nil || !math.IsNaN(got.Backoff) {
		t.Fatalf("NaN float not preserved: %+v err %v", got, err)
	}
}
