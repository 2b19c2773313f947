package nn

import (
	"bytes"
	"testing"
	"testing/quick"

	"insitu/internal/tensor"
)

// randomNet builds a random small architecture from a seed — used to
// property-test serialization across many layer mixes.
func randomNet(seed uint64) *Network {
	r := tensor.NewRNG(seed)
	const size = 8
	channels := 1 + r.Intn(3)
	layers := []Layer{
		NewConv2D("conv1", tensor.Conv2DGeom{
			InChannels: channels, InHeight: size, InWidth: size,
			KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 2 + r.Intn(4),
		}, r),
		NewReLU("relu1"),
	}
	out := layers[0].(*Conv2D).Geom.OutChannels
	if r.Intn(2) == 0 {
		layers = append(layers, NewConv2D("conv2", tensor.Conv2DGeom{
			InChannels: out, InHeight: size, InWidth: size,
			KernelSize: 3, Stride: 1, Padding: 1, OutChannels: out,
		}, r))
	}
	layers = append(layers, NewFlatten("flat"),
		NewDense("fc", out*size*size, 2+r.Intn(5), r))
	return NewNetwork("rand", layers...)
}

// Property: any randomly assembled architecture round-trips its weights
// bit-exactly through SaveWeights/LoadWeights.
func TestQuickSerializationRoundTrip(t *testing.T) {
	f := func(seed uint16) bool {
		a := randomNet(uint64(seed))
		b := randomNet(uint64(seed)) // same structure, same init
		// Perturb a's weights so the copy is observable.
		rr := tensor.NewRNG(uint64(seed) + 7)
		for _, p := range a.Params() {
			p.Value.FillNormal(rr, 0, 1)
		}
		var buf bytes.Buffer
		if err := a.SaveWeights(&buf); err != nil {
			return false
		}
		if err := b.LoadWeights(&buf); err != nil {
			return false
		}
		ap, bp := a.Params(), b.Params()
		for i := range ap {
			for j := range ap[i].Value.Data {
				if ap[i].Value.Data[j] != bp[i].Value.Data[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: a loaded network is behaviourally identical — forward passes
// agree bit-exactly in eval mode.
func TestQuickSerializationBehaviour(t *testing.T) {
	f := func(seed uint16) bool {
		a := randomNet(uint64(seed))
		b := randomNet(uint64(seed))
		rr := tensor.NewRNG(uint64(seed) * 31)
		for _, p := range a.Params() {
			p.Value.FillNormal(rr, 0, 0.5)
		}
		var buf bytes.Buffer
		if err := a.SaveWeights(&buf); err != nil {
			return false
		}
		if err := b.LoadWeights(&buf); err != nil {
			return false
		}
		conv := a.Layers[0].(*Conv2D)
		x := tensor.New(2, conv.Geom.InChannels, conv.Geom.InHeight, conv.Geom.InWidth)
		x.FillNormal(rr, 0, 1)
		ya := a.Forward(x, false)
		yb := b.Forward(x, false)
		for i := range ya.Data {
			if ya.Data[i] != yb.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
