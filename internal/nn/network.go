package nn

import (
	"fmt"
	"strings"
	"time"

	"insitu/internal/tensor"
)

// Network is an ordered stack of layers trained with softmax
// cross-entropy. It is the unit shipped between the simulated Cloud and
// In-situ AI nodes.
type Network struct {
	Name   string
	Layers []Layer
	loss   CrossEntropy
}

// NewNetwork builds a network from layers.
func NewNetwork(name string, layers ...Layer) *Network {
	return &Network{Name: name, Layers: layers}
}

// Forward runs the full stack. train enables dropout and activation
// caching for a subsequent Backward.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	s := nstats.Load()
	if s == nil {
		for _, l := range n.Layers {
			x = l.Forward(x, train)
		}
		return x
	}
	for _, l := range n.Layers {
		start := time.Now()
		x = l.Forward(x, train)
		s.observeForward(l.Name(), time.Since(start))
	}
	return x
}

// Params returns every learnable parameter in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears all parameter gradients.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// TrainStep runs one forward/backward pass on a batch and returns the mean
// loss and batch accuracy. Parameter gradients are left accumulated for
// the optimizer.
//
// Backward stops at the lowest layer that has a trainable parameter
// (non-frozen, with a gradient): that layer accumulates its parameter
// gradients but computes no input gradient, and the layers below it get
// no Backward call. With every parameter frozen there is no backward
// pass. This is what makes a locked CONV prefix cost no backward work,
// and it is exact because a layer's Backward changes nothing except its
// parameter gradients, the dx it returns and the dy it was given (see
// Layer): every trainable gradient comes from the same calls, in the
// same order, as a full backward.
func (n *Network) TrainStep(x *tensor.Tensor, labels []int) (loss, acc float64) {
	s := nstats.Load()
	var stepStart time.Time
	if s != nil {
		stepStart = time.Now()
	}
	logits := n.Forward(x, true)
	loss, grad := n.loss.LossAndGrad(logits, labels)
	acc = Accuracy(logits, labels)
	stop := n.stopLayer()
	for i := len(n.Layers) - 1; i >= stop; i-- {
		var start time.Time
		if s != nil {
			start = time.Now()
		}
		l := n.Layers[i]
		if pg, ok := l.(paramGrader); ok && i == stop {
			pg.backwardParams(grad)
		} else {
			grad = l.Backward(grad)
		}
		if s != nil {
			s.observeBackward(l.Name(), time.Since(start))
		}
	}
	if s != nil {
		s.trainSteps.Add(1)
		s.stepLoss.Set(loss)
		s.stepTime.Observe(float64(time.Since(stepStart)) / float64(time.Microsecond))
	}
	return loss, acc
}

// paramGrader is implemented by layers whose Backward splits into a
// parameter-gradient half and an input-gradient half. backwardParams
// runs the first half exactly as Backward would and skips the second;
// TrainStep calls it on the lowest trainable layer, whose input gradient
// nothing reads.
type paramGrader interface {
	backwardParams(dy *tensor.Tensor)
}

// stopLayer returns the index of the lowest layer with a trainable
// parameter, or len(n.Layers) when every parameter is frozen.
func (n *Network) stopLayer() int {
	for i, l := range n.Layers {
		for _, p := range l.Params() {
			if !p.Frozen && p.Grad != nil {
				return i
			}
		}
	}
	return len(n.Layers)
}

// Predict returns the argmax class per input row/batch element.
func (n *Network) Predict(x *tensor.Tensor) []int {
	return Argmax(n.Forward(x, false))
}

// Evaluate computes accuracy over a labeled batch without training.
func (n *Network) Evaluate(x *tensor.Tensor, labels []int) float64 {
	nstats.Load().evalStep()
	return Accuracy(n.Forward(x, false), labels)
}

// FreezeLayers marks the parameters of every layer whose name has one of
// the given prefixes as frozen. It returns how many parameters were
// frozen. This implements the paper's CONV-i locking: e.g.
// FreezeLayers("conv1", "conv2", "conv3") reproduces CONV-3.
func (n *Network) FreezeLayers(prefixes ...string) int {
	return n.setFrozen(true, prefixes)
}

// UnfreezeLayers clears the frozen flag on matching layers.
func (n *Network) UnfreezeLayers(prefixes ...string) int {
	return n.setFrozen(false, prefixes)
}

func (n *Network) setFrozen(frozen bool, prefixes []string) int {
	count := 0
	for _, l := range n.Layers {
		match := false
		for _, p := range prefixes {
			if strings.HasPrefix(l.Name(), p) {
				match = true
				break
			}
		}
		if !match {
			continue
		}
		for _, p := range l.Params() {
			p.Frozen = frozen
			count++
		}
	}
	return count
}

// FrozenParamCount reports the number of frozen parameters.
func (n *Network) FrozenParamCount() int {
	c := 0
	for _, p := range n.Params() {
		if p.Frozen {
			c++
		}
	}
	return c
}

// CopyWeightsFrom copies parameter values from src into n for every layer
// whose name has one of the given prefixes (all layers if none given).
// Source and destination must agree on layer names and shapes for the
// copied set. This is the paper's transfer-learning step: copy the first n
// CONV layers of the unsupervised network into the inference network.
func (n *Network) CopyWeightsFrom(src *Network, prefixes ...string) (copied int, err error) {
	srcByName := make(map[string]*Param)
	for _, p := range src.Params() {
		srcByName[p.Name] = p
	}
	for _, p := range n.Params() {
		if len(prefixes) > 0 {
			match := false
			for _, pre := range prefixes {
				if strings.HasPrefix(p.Name, pre) {
					match = true
					break
				}
			}
			if !match {
				continue
			}
		}
		sp, ok := srcByName[p.Name]
		if !ok {
			return copied, fmt.Errorf("nn: source network %q has no parameter %q", src.Name, p.Name)
		}
		if !p.Value.SameShape(sp.Value) {
			return copied, fmt.Errorf("nn: parameter %q shape mismatch: %v vs %v", p.Name, p.Value.Shape(), sp.Value.Shape())
		}
		p.CopyValueFrom(sp)
		copied++
	}
	return copied, nil
}

// ParamCount returns the total number of scalar weights in the network.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Value.Size()
	}
	return total
}

// ParamBytes returns the serialized weight footprint assuming float32.
func (n *Network) ParamBytes() int64 { return int64(n.ParamCount()) * 4 }

// String summarizes the architecture.
func (n *Network) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Network %q:", n.Name)
	for _, l := range n.Layers {
		fmt.Fprintf(&b, " %s", l.Name())
	}
	return b.String()
}
