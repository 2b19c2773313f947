package jigsaw

import (
	"fmt"

	"insitu/internal/models"
	"insitu/internal/nn"
	"insitu/internal/tensor"
)

// Tile extracts tile t (row-major in the 3×3 grid) of an image shaped
// [C, ImgSize, ImgSize] into dst shaped [C, PatchSize, PatchSize].
func Tile(img *tensor.Tensor, t int, dst *tensor.Tensor) {
	const P = models.PatchSize
	if t < 0 || t >= GridTiles {
		panic(fmt.Sprintf("jigsaw: tile index %d out of range", t))
	}
	ty, tx := t/3, t%3
	c := img.Dim(0)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < P; y++ {
			srcBase := (ch*img.Dim(1)+ty*P+y)*img.Dim(2) + tx*P
			dstBase := (ch*P + y) * P
			copy(dst.Data[dstBase:dstBase+P], img.Data[srcBase:srcBase+P])
		}
	}
}

// tiles cuts every image into its GridTiles tiles in identity order:
// [len(images)·GridTiles, C, P, P], image-major.
func tiles(images []*tensor.Tensor) *tensor.Tensor {
	const P = models.PatchSize
	c := images[0].Dim(0)
	per := c * P * P
	out := tensor.New(len(images)*GridTiles, c, P, P)
	for i, img := range images {
		for t := 0; t < GridTiles; t++ {
			r := i*GridTiles + t
			Tile(img, t, tensor.FromSlice(out.Data[r*per:(r+1)*per], c, P, P))
		}
	}
	return out
}

// TileFeatures runs net's first depth layers over the tiles of every
// image, in identity order and eval mode: [len(images)·GridTiles, ...],
// one row per tile. depth must not pass the Regroup layer (TrunkDepth),
// below which the net works on each tile alone, so a tile's row is the
// same under every permutation.
func TileFeatures(net *nn.Network, images []*tensor.Tensor, depth int) *tensor.Tensor {
	return net.ForwardLayers(tiles(images), 0, depth, false)
}

// Gather builds jigsaw rows from per-tile rows: feats holds the tiles
// of some images in identity order, GridTiles rows per image, as tiles
// and TileFeatures lay them out. Block i of the result is image
// images[i] shuffled by perms[i]: its slot s holds tile perms[i][s].
// Rows keep feats' shape, and the memory layout is the same whether a
// block is read as GridTiles rows or, after Regroup, as one.
func Gather(feats *tensor.Tensor, images []int, perms []Permutation) *tensor.Tensor {
	if len(images) != len(perms) {
		panic("jigsaw: images/perms length mismatch")
	}
	shape := feats.Shape()
	per := feats.Size() / shape[0]
	shape[0] = len(images) * GridTiles
	out := tensor.New(shape...)
	for i, img := range images {
		for slot, t := range perms[i] {
			src := (img*GridTiles + t) * per
			copy(out.Data[(i*GridTiles+slot)*per:], feats.Data[src:src+per])
		}
	}
	return out
}

// Batch packs n jigsaw samples into the network input layout
// [n·GridTiles, C, P, P] plus the permutation-index labels (one per
// image). images[i] is shuffled by set.At(labels[i]).
func Batch(images []*tensor.Tensor, labels []int, set *PermSet) *tensor.Tensor {
	if len(images) != len(labels) {
		panic("jigsaw: images/labels length mismatch")
	}
	return gatherFrom(tiles(images), 0, labels, set)
}

// gatherFrom gathers len(labels) consecutive images of feats from
// image first on, image first+i shuffled by set.At(labels[i]).
func gatherFrom(feats *tensor.Tensor, first int, labels []int, set *PermSet) *tensor.Tensor {
	idx := make([]int, len(labels))
	perms := make([]Permutation, len(labels))
	for i, l := range labels {
		idx[i], perms[i] = first+i, set.At(l)
	}
	return Gather(feats, idx, perms)
}

// RandomBatch shuffles each image by a random permutation from the set,
// returning the packed input and the chosen labels. This is how training
// samples are generated from unlabeled IoT data — the supervisory signal
// is synthesized from the image itself.
func RandomBatch(images []*tensor.Tensor, set *PermSet, rng *tensor.RNG) (*tensor.Tensor, []int) {
	labels := make([]int, len(images))
	for i := range labels {
		labels[i] = rng.Intn(set.Len())
	}
	return Batch(images, labels, set), labels
}
