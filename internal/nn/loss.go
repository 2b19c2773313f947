package nn

import (
	"fmt"
	"math"

	"insitu/internal/tensor"
)

// Softmax computes row-wise softmax probabilities of logits [B, C] with
// the usual max-subtraction for numerical stability.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	if logits.Rank() != 2 {
		panic("nn: Softmax wants rank-2 logits")
	}
	b, c := logits.Dim(0), logits.Dim(1)
	out := tensor.New(b, c)
	for i := 0; i < b; i++ {
		row := logits.Data[i*c : (i+1)*c]
		dst := out.Data[i*c : (i+1)*c]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxv))
			dst[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range dst {
			dst[j] *= inv
		}
	}
	return out
}

// CrossEntropy couples a softmax with the negative log-likelihood loss.
// LossAndGrad returns the mean loss over the batch and the gradient with
// respect to the logits, which is the (probs - onehot)/B closed form.
type CrossEntropy struct{}

// LossAndGrad computes mean cross-entropy loss of logits [B, C] against
// integer labels (len B) and its gradient with respect to the logits.
func (CrossEntropy) LossAndGrad(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	b, c := logits.Dim(0), logits.Dim(1)
	if len(labels) != b {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), b))
	}
	probs := Softmax(logits)
	grad := probs.Clone()
	var loss float64
	invB := float32(1.0 / float64(b))
	for i := 0; i < b; i++ {
		y := labels[i]
		if y < 0 || y >= c {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, c))
		}
		p := probs.At(i, y)
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(float64(p))
		grad.Data[i*c+y] -= 1
	}
	grad.Scale(invB)
	return loss / float64(b), grad
}

// Accuracy returns the fraction of rows of logits whose argmax equals the
// label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	b, c := logits.Dim(0), logits.Dim(1)
	correct := 0
	for i := 0; i < b; i++ {
		row := logits.Data[i*c : (i+1)*c]
		arg := 0
		for j, v := range row {
			if v > row[arg] {
				arg = j
			}
		}
		if arg == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(b)
}

// Argmax returns the per-row argmax of a [B, C] tensor.
func Argmax(logits *tensor.Tensor) []int {
	b, c := logits.Dim(0), logits.Dim(1)
	out := make([]int, b)
	for i := 0; i < b; i++ {
		row := logits.Data[i*c : (i+1)*c]
		arg := 0
		for j, v := range row {
			if v > row[arg] {
				arg = j
			}
		}
		out[i] = arg
	}
	return out
}
