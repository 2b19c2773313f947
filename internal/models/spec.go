// Package models holds two kinds of network descriptions used by the
// In-situ AI reproduction:
//
//   - Full-size layer descriptors (AlexNet, VGGNet) in the paper's
//     N/M/K/R/C notation. These feed the analytical device models
//     (gpusim, fpgasim) exactly as the paper's equations consume them; the
//     networks are never executed at this size.
//   - Small trainable CNNs (TinyAlex, TinyVGG, TinyGoogLe) built on
//     internal/nn, used for the learning experiments (Table I, Figs. 5–7)
//     at laptop scale.
package models

import "fmt"

// LayerKind distinguishes the two layer families the paper's analytical
// models treat differently.
type LayerKind int

const (
	// Conv is a convolutional layer (CONV in the paper).
	Conv LayerKind = iota
	// FC is a fully-connected layer (FCN in the paper).
	FC
)

// String implements fmt.Stringer.
func (k LayerKind) String() string {
	switch k {
	case Conv:
		return "CONV"
	case FC:
		return "FCN"
	default:
		return fmt.Sprintf("LayerKind(%d)", int(k))
	}
}

// LayerSpec describes one layer in the paper's notation (Fig. 8): N input
// feature maps, M output feature maps (filters), K×K kernels, and R×C
// output feature-map size. For FC layers K = R = C = 1, N is the input
// width and M the output width.
type LayerSpec struct {
	Name string
	Kind LayerKind
	N    int // input feature maps / input width
	M    int // output feature maps / output width
	K    int // kernel size (1 for FC)
	R    int // output height (1 for FC)
	C    int // output width (1 for FC)
}

// FCSpec is a convenience constructor for fully-connected layers.
func FCSpec(name string, in, out int) LayerSpec {
	return LayerSpec{Name: name, Kind: FC, N: in, M: out, K: 1, R: 1, C: 1}
}

// Ops returns the layer's multiply-accumulate operation count for one
// input, counted as 2 ops per MAC — the paper's eq. (1):
// CONVops = 2·M·N·K²·R·C.
func (l LayerSpec) Ops() int64 {
	return 2 * int64(l.M) * int64(l.N) * int64(l.K) * int64(l.K) * int64(l.R) * int64(l.C)
}

// WeightCount returns the number of scalar weights, M·N·K² plus M biases.
func (l LayerSpec) WeightCount() int64 {
	return int64(l.M)*int64(l.N)*int64(l.K)*int64(l.K) + int64(l.M)
}

// WeightBytes returns the float32 weight footprint in bytes (the paper's
// Dw term of eq. 8, ×4 bytes).
func (l LayerSpec) WeightBytes() int64 { return 4 * l.WeightCount() }

// InputElems returns the element count of the layer input per sample: the
// im2col data-matrix rows×cols for CONV (N·K²·R·C, matching the paper's
// Din = NK²·RC), or N for FC.
func (l LayerSpec) InputElems() int64 {
	if l.Kind == FC {
		return int64(l.N)
	}
	return int64(l.N) * int64(l.K) * int64(l.K) * int64(l.R) * int64(l.C)
}

// OutputElems returns M·R·C, the per-sample output element count (Dout).
func (l LayerSpec) OutputElems() int64 {
	return int64(l.M) * int64(l.R) * int64(l.C)
}

// NetSpec is an ordered list of layers with a name.
type NetSpec struct {
	Name   string
	Layers []LayerSpec
}

// ConvLayers returns the CONV-kind layers in order.
func (n NetSpec) ConvLayers() []LayerSpec { return n.byKind(Conv) }

// FCLayers returns the FC-kind layers in order.
func (n NetSpec) FCLayers() []LayerSpec { return n.byKind(FC) }

func (n NetSpec) byKind(k LayerKind) []LayerSpec {
	var out []LayerSpec
	for _, l := range n.Layers {
		if l.Kind == k {
			out = append(out, l)
		}
	}
	return out
}

// TotalOps returns the per-sample op count of the whole network.
func (n NetSpec) TotalOps() int64 {
	var s int64
	for _, l := range n.Layers {
		s += l.Ops()
	}
	return s
}
