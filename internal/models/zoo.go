package models

// AlexNet returns the layer descriptor of AlexNet (Krizhevsky et al.,
// single-tower variant, 227×227 input) — the primary workload of the
// paper's characterization and Co-running experiments.
func AlexNet() NetSpec {
	return NetSpec{
		Name: "AlexNet",
		Layers: []LayerSpec{
			{Name: "conv1", Kind: Conv, N: 3, M: 96, K: 11, R: 55, C: 55},
			{Name: "conv2", Kind: Conv, N: 96, M: 256, K: 5, R: 27, C: 27},
			{Name: "conv3", Kind: Conv, N: 256, M: 384, K: 3, R: 13, C: 13},
			{Name: "conv4", Kind: Conv, N: 384, M: 384, K: 3, R: 13, C: 13},
			{Name: "conv5", Kind: Conv, N: 384, M: 256, K: 3, R: 13, C: 13},
			FCSpec("fc6", 256*6*6, 4096),
			FCSpec("fc7", 4096, 4096),
			FCSpec("fc8", 4096, 1000),
		},
	}
}

// VGGNet returns the VGG-16 layer descriptor (224×224 input), the paper's
// "deeper network" where GPU resources are already saturated at small
// batch sizes (Fig. 21).
func VGGNet() NetSpec {
	return NetSpec{
		Name: "VGGNet",
		Layers: []LayerSpec{
			{Name: "conv1_1", Kind: Conv, N: 3, M: 64, K: 3, R: 224, C: 224},
			{Name: "conv1_2", Kind: Conv, N: 64, M: 64, K: 3, R: 224, C: 224},
			{Name: "conv2_1", Kind: Conv, N: 64, M: 128, K: 3, R: 112, C: 112},
			{Name: "conv2_2", Kind: Conv, N: 128, M: 128, K: 3, R: 112, C: 112},
			{Name: "conv3_1", Kind: Conv, N: 128, M: 256, K: 3, R: 56, C: 56},
			{Name: "conv3_2", Kind: Conv, N: 256, M: 256, K: 3, R: 56, C: 56},
			{Name: "conv3_3", Kind: Conv, N: 256, M: 256, K: 3, R: 56, C: 56},
			{Name: "conv4_1", Kind: Conv, N: 256, M: 512, K: 3, R: 28, C: 28},
			{Name: "conv4_2", Kind: Conv, N: 512, M: 512, K: 3, R: 28, C: 28},
			{Name: "conv4_3", Kind: Conv, N: 512, M: 512, K: 3, R: 28, C: 28},
			{Name: "conv5_1", Kind: Conv, N: 512, M: 512, K: 3, R: 14, C: 14},
			{Name: "conv5_2", Kind: Conv, N: 512, M: 512, K: 3, R: 14, C: 14},
			{Name: "conv5_3", Kind: Conv, N: 512, M: 512, K: 3, R: 14, C: 14},
			FCSpec("fc6", 512*7*7, 4096),
			FCSpec("fc7", 4096, 4096),
			FCSpec("fc8", 4096, 1000),
		},
	}
}

// DiagnosisSpec derives the per-patch diagnosis (jigsaw) network from an
// inference network, as in the paper's Fig. 4 and Fig. 18: the diagnosis
// task runs the same CONV stack on each of the 9 patches, whose feature
// maps are half the inference network's linear size (55×55 → 27×27 for
// AlexNet conv1), followed by a permutation-classification FCN head with
// permClasses outputs. The returned spec describes the processing of ONE
// patch; the node runs it 9 times per image (or on 9 parallel engines in
// the WSS architecture).
func DiagnosisSpec(base NetSpec, permClasses int) NetSpec {
	out := NetSpec{Name: base.Name + "-diagnosis"}
	var lastConv LayerSpec
	for _, l := range base.Layers {
		if l.Kind != Conv {
			continue
		}
		d := l
		d.R = (l.R + 1) / 2
		d.C = (l.C + 1) / 2
		out.Layers = append(out.Layers, d)
		lastConv = d
	}
	feat := lastConv.M * lastConv.R * lastConv.C
	// Concatenating 9 patch embeddings happens in the head's input width;
	// the per-patch spec carries the head sized for the concatenation so
	// total-op accounting (9 × conv stack + 1 × head) is exact when the
	// caller multiplies conv work by 9.
	out.Layers = append(out.Layers,
		FCSpec("fc_embed", feat, 512),
		FCSpec("fc_perm", 512*9, permClasses),
	)
	return out
}
