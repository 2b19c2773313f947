package deploy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"
	"testing/quick"

	"insitu/internal/diagnosis"
	"insitu/internal/jigsaw"
	"insitu/internal/models"
	"insitu/internal/nn"
	"insitu/internal/tensor"
)

func TestPackEncodeDecodeApplyRoundTrip(t *testing.T) {
	inf := models.TinyAlex(4, 1)
	jig := jigsaw.NewNet(8, 2)
	bundle, err := Pack(7, inf, jig, 0.42)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := bundle.Encode(&wire); err != nil {
		t.Fatal(err)
	}
	if int64(wire.Len()) != bundle.Size() {
		t.Fatalf("Size() = %d, encoded %d", bundle.Size(), wire.Len())
	}
	got, err := Decode(&wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 7 || got.Threshold != 0.42 {
		t.Fatalf("metadata lost: %+v", got)
	}
	// Apply onto differently-initialized nets of the same architecture.
	inf2 := models.TinyAlex(4, 99)
	jig2 := jigsaw.NewNet(8, 98)
	set := jigsaw.NewPermSet(8, 3)
	d := diagnosis.NewJigsawDiagnoser(jig2, set, 2, 4)
	if err := got.ApplyAtomic(0, inf2, jig2, d); err != nil {
		t.Fatal(err)
	}
	if d.Threshold() != 0.42 {
		t.Fatalf("threshold not applied: %v", d.Threshold())
	}
	// Networks now behave identically to the originals.
	r := tensor.NewRNG(5)
	x := tensor.New(2, models.ImgChannels, models.ImgSize, models.ImgSize)
	x.FillNormal(r, 0, 1)
	a := inf.Forward(x, false)
	b := inf2.Forward(x, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("inference weights differ after deployment")
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	inf := models.TinyAlex(3, 1)
	jig := jigsaw.NewNet(6, 2)
	bundle, err := Pack(1, inf, jig, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := bundle.Encode(&wire); err != nil {
		t.Fatal(err)
	}
	raw := wire.Bytes()
	// Flip one payload byte: checksum must catch it.
	raw[len(raw)/2] ^= 0xFF
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted bundle accepted")
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("XXXXXXXXwhatever"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	inf := models.TinyAlex(3, 1)
	jig := jigsaw.NewNet(6, 2)
	bundle, _ := Pack(1, inf, jig, 0.5)
	var wire bytes.Buffer
	if err := bundle.Encode(&wire); err != nil {
		t.Fatal(err)
	}
	raw := wire.Bytes()[:wire.Len()/2]
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("truncated bundle accepted")
	}
}

func TestApplyRejectsWrongArchitecture(t *testing.T) {
	inf := models.TinyAlex(3, 1)
	jig := jigsaw.NewNet(6, 2)
	bundle, _ := Pack(1, inf, jig, 0.5)
	wrong := models.TinyAlex(5, 1) // different class count
	if err := bundle.ApplyAtomic(0, wrong, jigsaw.NewNet(6, 3), nil); err == nil {
		t.Fatal("wrong architecture accepted")
	}
}

func TestBundleSizeMatchesWeightFootprint(t *testing.T) {
	inf := models.TinyAlex(4, 1)
	jig := jigsaw.NewNet(8, 2)
	bundle, _ := Pack(1, inf, jig, 0.5)
	// The bundle must be dominated by the two weight payloads.
	minSize := inf.ParamBytes() + jig.ParamBytes()
	if bundle.Size() < minSize {
		t.Fatalf("bundle %d smaller than raw weights %d", bundle.Size(), minSize)
	}
	// Overhead (names, shapes, framing) stays under 10%.
	if float64(bundle.Size()) > 1.1*float64(minSize) {
		t.Fatalf("bundle overhead too large: %d vs %d", bundle.Size(), minSize)
	}
}

// Property: every version/threshold combination survives the round trip.
func TestQuickMetadataRoundTrip(t *testing.T) {
	inf := models.TinyAlex(3, 1)
	jig := jigsaw.NewNet(6, 2)
	f := func(version uint32, thr float64) bool {
		b, err := Pack(version, inf, jig, thr)
		if err != nil {
			return false
		}
		var wire bytes.Buffer
		if err := b.Encode(&wire); err != nil {
			return false
		}
		got, err := Decode(&wire)
		if err != nil {
			return false
		}
		return got.Version == version && (got.Threshold == thr || (thr != thr && got.Threshold != got.Threshold))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyAtomicRejectsStaleAndReplay(t *testing.T) {
	inf := models.TinyAlex(3, 1)
	jig := jigsaw.NewNet(6, 2)
	bundle, _ := Pack(3, inf, jig, 0.5)
	node := models.TinyAlex(3, 9)
	nodeJig := jigsaw.NewNet(6, 8)
	// Node already at the bundle's version: replay must be rejected.
	if err := bundle.ApplyAtomic(3, node, nodeJig, nil); !errors.Is(err, ErrStale) {
		t.Fatalf("replayed bundle: err = %v, want ErrStale", err)
	}
	// Node ahead of the bundle: stale must be rejected.
	if err := bundle.ApplyAtomic(7, node, nodeJig, nil); !errors.Is(err, ErrStale) {
		t.Fatalf("stale bundle: err = %v, want ErrStale", err)
	}
	// Node behind: applies cleanly.
	if err := bundle.ApplyAtomic(2, node, nodeJig, nil); err != nil {
		t.Fatal(err)
	}
}

// forward runs a fixed probe batch through the net, for before/after
// weight comparisons.
func forward(net *nn.Network) []float32 {
	r := tensor.NewRNG(17)
	x := tensor.New(2, models.ImgChannels, models.ImgSize, models.ImgSize)
	x.FillNormal(r, 0, 1)
	return append([]float32(nil), net.Forward(x, false).Data...)
}

func TestApplyAtomicRollsBackOnMidApplyFailure(t *testing.T) {
	inf := models.TinyAlex(3, 1)
	jig := jigsaw.NewNet(6, 2)
	bundle, _ := Pack(5, inf, jig, 0.9)
	// A bundle that decodes fine but whose jigsaw payload fails mid-apply:
	// the inference weights load first, then the jigsaw load errors.
	bundle.JigsawWeights = bundle.JigsawWeights[:len(bundle.JigsawWeights)/2]

	node := models.TinyAlex(3, 9)
	nodeJig := jigsaw.NewNet(6, 8)
	set := jigsaw.NewPermSet(6, 3)
	d := diagnosis.NewJigsawDiagnoser(nodeJig, set, 2, 4)
	d.SetThreshold(0.25)
	beforeInf := forward(node)
	beforeJig := append([]float32(nil), nodeJig.Params()[0].Value.Data...)

	if err := bundle.ApplyAtomic(1, node, nodeJig, d); err == nil {
		t.Fatal("truncated jigsaw payload applied")
	}
	afterInf := forward(node)
	for i := range beforeInf {
		if beforeInf[i] != afterInf[i] {
			t.Fatal("inference weights not rolled back after mid-apply failure")
		}
	}
	afterJig := nodeJig.Params()[0].Value.Data
	for i := range beforeJig {
		if beforeJig[i] != afterJig[i] {
			t.Fatal("jigsaw weights changed after failed apply")
		}
	}
	if d.Threshold() != 0.25 {
		t.Fatalf("threshold changed on failed apply: %v", d.Threshold())
	}

	// A bundle whose inference payload itself is broken: first load fails,
	// nothing may change.
	bundle2, _ := Pack(5, inf, jig, 0.9)
	bundle2.InferenceWeights = bundle2.InferenceWeights[:8]
	if err := bundle2.ApplyAtomic(1, node, nodeJig, d); err == nil {
		t.Fatal("truncated inference payload applied")
	}
	afterInf2 := forward(node)
	for i := range beforeInf {
		if beforeInf[i] != afterInf2[i] {
			t.Fatal("inference weights not rolled back after first-load failure")
		}
	}
}

func TestDecodeRejectsEveryByteFlip(t *testing.T) {
	inf := models.TinyAlex(2, 1)
	jig := jigsaw.NewNet(4, 2)
	bundle, _ := Pack(1, inf, jig, 0.5)
	var wire bytes.Buffer
	if err := bundle.Encode(&wire); err != nil {
		t.Fatal(err)
	}
	raw := wire.Bytes()
	// Stride through the frame (covering magic, header, payloads, CRC):
	// any single flipped byte must be rejected.
	stride := len(raw)/257 + 1
	for i := 0; i < len(raw); i += stride {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x40
		if _, err := Decode(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flip at byte %d of %d accepted", i, len(raw))
		}
	}
}

func TestApplyAtomicRejectsNonFiniteThreshold(t *testing.T) {
	inf := models.TinyAlex(3, 1)
	jig := jigsaw.NewNet(6, 2)
	node := models.TinyAlex(3, 9)
	nodeJig := jigsaw.NewNet(6, 8)
	set := jigsaw.NewPermSet(6, 3)
	d := diagnosis.NewJigsawDiagnoser(nodeJig, set, 2, 4)
	d.SetThreshold(0.25)
	for _, thr := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bundle, err := Pack(5, inf, jig, thr)
		if err != nil {
			t.Fatal(err)
		}
		if err := bundle.ApplyAtomic(1, node, nodeJig, d); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("threshold %v: err = %v, want ErrNonFinite", thr, err)
		}
		if d.Threshold() != 0.25 {
			t.Fatalf("threshold changed after rejected bundle: %v", d.Threshold())
		}
	}
}

func TestApplyAtomicRejectsNonFiniteWeights(t *testing.T) {
	// A diverged Cloud model: one NaN parameter, but the bundle frames and
	// checksums fine — the node must refuse it and roll back.
	inf := models.TinyAlex(3, 1)
	jig := jigsaw.NewNet(6, 2)
	inf.Params()[0].Value.Data[5] = float32(math.NaN())
	bundle, err := Pack(5, inf, jig, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := bundle.Encode(&wire); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(&wire)
	if err != nil {
		t.Fatalf("CRC must pass — NaN is not transit corruption: %v", err)
	}

	node := models.TinyAlex(3, 9)
	nodeJig := jigsaw.NewNet(6, 8)
	set := jigsaw.NewPermSet(6, 3)
	d := diagnosis.NewJigsawDiagnoser(nodeJig, set, 2, 4)
	d.SetThreshold(0.25)
	beforeInf := forward(node)
	beforeJig := append([]float32(nil), nodeJig.Params()[0].Value.Data...)

	if err := decoded.ApplyAtomic(1, node, nodeJig, d); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("NaN weights: err = %v, want ErrNonFinite", err)
	}
	afterInf := forward(node)
	for i := range beforeInf {
		if beforeInf[i] != afterInf[i] {
			t.Fatal("inference weights not rolled back after NaN rejection")
		}
	}
	afterJig := nodeJig.Params()[0].Value.Data
	for i := range beforeJig {
		if beforeJig[i] != afterJig[i] {
			t.Fatal("jigsaw weights not rolled back after NaN rejection")
		}
	}
	if err := node.CheckFinite(); err != nil {
		t.Fatalf("node left with non-finite weights: %v", err)
	}
	if d.Threshold() != 0.25 {
		t.Fatalf("threshold changed after NaN rejection: %v", d.Threshold())
	}
}

func TestDecodeRejectsHugeLengthPrefix(t *testing.T) {
	// Hand-build a frame whose first payload length claims ~4 GiB; with
	// a valid CRC the length check itself must reject it (and must not
	// wrap negative through int conversion).
	var body bytes.Buffer
	binary.Write(&body, binary.LittleEndian, uint32(1))             // version
	binary.Write(&body, binary.LittleEndian, math.Float64bits(0.5)) // threshold
	binary.Write(&body, binary.LittleEndian, uint32(0xFFFFFFF0))    // absurd length
	body.Write(make([]byte, 16))                                    // far fewer bytes than claimed
	var wire bytes.Buffer
	wire.WriteString("ISDP0001")
	wire.Write(body.Bytes())
	binary.Write(&wire, binary.LittleEndian, crc32.ChecksumIEEE(body.Bytes()))
	if _, err := Decode(bytes.NewReader(wire.Bytes())); err == nil {
		t.Fatal("absurd payload length accepted")
	}
}
