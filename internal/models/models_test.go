package models

import (
	"testing"

	"insitu/internal/nn"
	"insitu/internal/tensor"
)

func TestAlexNetOpsMatchPublishedScale(t *testing.T) {
	spec := AlexNet()
	// AlexNet forward pass is ~1.4 GOPs (2 ops/MAC, single tower ~2.2 on
	// the un-grouped variant). Accept the 1.0–3.0 GOPs window.
	ops := spec.TotalOps()
	if ops < 1_000_000_000 || ops > 3_000_000_000 {
		t.Fatalf("AlexNet ops = %d, outside plausible window", ops)
	}
	// conv1: 2*96*3*11^2*55^2 ops.
	c1 := spec.Layers[0]
	want := int64(2 * 96 * 3 * 121 * 55 * 55)
	if c1.Ops() != want {
		t.Fatalf("conv1 ops = %d, want %d", c1.Ops(), want)
	}
	// AlexNet weights ~61M params ≈ 244 MB fp32.
	params := int64(0)
	for _, l := range spec.Layers {
		params += l.WeightCount()
	}
	if params < 55_000_000 || params > 70_000_000 {
		t.Fatalf("AlexNet params = %d, want ~61M", params)
	}
}

func TestVGGNetOpsMatchPublishedScale(t *testing.T) {
	spec := VGGNet()
	// VGG-16 is ~31 GOPs at 2 ops/MAC.
	ops := spec.TotalOps()
	if ops < 25_000_000_000 || ops > 40_000_000_000 {
		t.Fatalf("VGGNet ops = %d, want ~31 GOPs", ops)
	}
	// VGG16 has ~138M params.
	params := int64(0)
	for _, l := range spec.Layers {
		params += l.WeightCount()
	}
	if params < 125_000_000 || params > 150_000_000 {
		t.Fatalf("VGGNet params = %d, want ~138M", params)
	}
}

func TestLayerSpecAccounting(t *testing.T) {
	l := LayerSpec{Name: "x", Kind: Conv, N: 4, M: 8, K: 3, R: 10, C: 12}
	if got := l.Ops(); got != 2*8*4*9*10*12 {
		t.Fatalf("Ops = %d", got)
	}
	if got := l.WeightCount(); got != 8*4*9+8 {
		t.Fatalf("WeightCount = %d", got)
	}
	if got := l.InputElems(); got != 4*9*10*12 {
		t.Fatalf("InputElems = %d", got)
	}
	if got := l.OutputElems(); got != 8*10*12 {
		t.Fatalf("OutputElems = %d", got)
	}
	fc := FCSpec("fc", 100, 10)
	if fc.Ops() != 2*100*10 {
		t.Fatalf("FC ops = %d", fc.Ops())
	}
	if fc.InputElems() != 100 || fc.OutputElems() != 10 {
		t.Fatal("FC elems wrong")
	}
}

func TestConvFCPartition(t *testing.T) {
	spec := AlexNet()
	conv, fc := spec.ConvLayers(), spec.FCLayers()
	if len(conv) != 5 || len(fc) != 3 {
		t.Fatalf("AlexNet partition = %d conv, %d fc", len(conv), len(fc))
	}
	if len(conv)+len(fc) != len(spec.Layers) {
		t.Fatal("partition loses layers")
	}
}

func TestDiagnosisSpecHalvesMaps(t *testing.T) {
	d := DiagnosisSpec(AlexNet(), 100)
	c1 := d.Layers[0]
	// Paper: 55×55 inference vs ~27×27 diagnosis first layer.
	if c1.R != 28 || c1.C != 28 {
		t.Fatalf("diagnosis conv1 out = %dx%d, want 28x28 (≈27)", c1.R, c1.C)
	}
	// Channel structure unchanged: weight sharing possible.
	a1 := AlexNet().Layers[0] // conv1
	if c1.N != a1.N || c1.M != a1.M || c1.K != a1.K {
		t.Fatal("diagnosis layer changed channel structure")
	}
	// Permutation head present with 100 classes.
	last := d.Layers[len(d.Layers)-1]
	if last.Kind != FC || last.M != 100 {
		t.Fatalf("diagnosis head = %+v", last)
	}
}

func TestDiagnosisComputeRatioToInference(t *testing.T) {
	// Per paper §IV-B2: each layer's diagnosis computation is ~1/4 of the
	// inference computation per patch (half linear size each way).
	a := AlexNet()
	d := DiagnosisSpec(a, 100)
	ai := a.Layers[2] // conv3
	di := d.Layers[2] // conv3
	ratio := float64(di.Ops()) / float64(ai.Ops())
	if ratio < 0.2 || ratio > 0.3 {
		t.Fatalf("per-patch diagnosis/inference op ratio = %v, want ~0.25", ratio)
	}
}

func TestTinyNetsForwardShapes(t *testing.T) {
	for _, build := range []func(int, uint64) *nn.Network{TinyAlex, TinyVGG, TinyGoogLe} {
		net := build(7, 1)
		r := tensor.NewRNG(2)
		x := tensor.New(2, ImgChannels, ImgSize, ImgSize)
		x.FillNormal(r, 0, 1)
		y := net.Forward(x, false)
		if y.Dim(0) != 2 || y.Dim(1) != 7 {
			t.Fatalf("%s output shape = %v, want [2 7]", net.Name, y.Shape())
		}
	}
}

func TestTinyCapacityOrdering(t *testing.T) {
	a := paramCount(TinyAlex(10, 1))
	g := paramCount(TinyGoogLe(10, 1))
	v := paramCount(TinyVGG(10, 1))
	if !(v > a) {
		t.Fatalf("TinyVGG (%d) should have more params than TinyAlex (%d)", v, a)
	}
	if g <= 0 {
		t.Fatalf("TinyGoogLe params = %d", g)
	}
}

// paramCount returns the number of scalar weights in net.
func paramCount(net *nn.Network) int {
	total := 0
	for _, p := range net.Params() {
		total += p.Value.Size()
	}
	return total
}

func TestJigsawTrunkSharesShapesWithTinyAlex(t *testing.T) {
	r := tensor.NewRNG(1)
	trunk := nn.NewNetwork("trunk", JigsawTrunk(r)...)
	alex := TinyAlex(10, 2)
	// conv1..conv3 weights must be shape-compatible for CopyWeightsFrom.
	copied, err := alex.CopyWeightsFrom(trunk, "conv1", "conv2", "conv3")
	if err != nil {
		t.Fatal(err)
	}
	if copied != 6 {
		t.Fatalf("copied %d params, want 6 (3 layers × W,b)", copied)
	}
	// Trunk forward on a patch works and flattens to the documented width.
	x := tensor.New(4, ImgChannels, PatchSize, PatchSize)
	x.FillNormal(r, 0, 1)
	y := trunk.Forward(x, false)
	flat := y.Size() / 4
	if flat != JigsawTrunkFeatures {
		t.Fatalf("trunk features = %d, want %d", flat, JigsawTrunkFeatures)
	}
}

func TestTinyByName(t *testing.T) {
	if got := TinyByName("VGGNet", 3, 1).Name; got != "TinyVGG" {
		t.Fatalf("TinyByName(VGGNet) = %s", got)
	}
	if got := TinyByName("GoogLeNet", 3, 1).Name; got != "TinyGoogLe" {
		t.Fatalf("TinyByName(GoogLeNet) = %s", got)
	}
	if got := TinyByName("AlexNet", 3, 1).Name; got != "TinyAlex" {
		t.Fatalf("TinyByName(AlexNet) = %s", got)
	}
	if got := TinyByName("nonsense", 3, 1).Name; got != "TinyAlex" {
		t.Fatalf("TinyByName(nonsense) = %s", got)
	}
}
