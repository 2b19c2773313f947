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
	return n.ForwardLayers(x, 0, len(n.Layers), train)
}

// ForwardLayers runs layers [from, to) over x, as Forward runs them all:
// a network split at any depth computes the same output in two calls.
func (n *Network) ForwardLayers(x *tensor.Tensor, from, to int, train bool) *tensor.Tensor {
	return n.forward(x, n.Layers[from:to], train, false)
}

// forward runs layers over x: with frozen, each through its
// frozenForwarder; otherwise through Forward(x, train).
func (n *Network) forward(x *tensor.Tensor, layers []Layer, train, frozen bool) *tensor.Tensor {
	s := nstats.Load()
	for _, l := range layers {
		var start time.Time
		if s != nil {
			start = time.Now()
		}
		if frozen {
			x = l.(frozenForwarder).forwardFrozen(x)
		} else {
			x = l.Forward(x, train)
		}
		if s != nil {
			s.observeForward(l.Name(), time.Since(start))
		}
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

// TrainStep runs one forward/backward pass on a batch and returns the mean
// loss and batch accuracy. Parameter gradients are left accumulated for
// the optimizer. It is TrainStepAbove over ForwardFrozen(x).
//
// Backward stops at the lowest layer that has a trainable parameter
// (non-frozen): that layer accumulates its parameter
// gradients but computes no input gradient, and the layers below it get
// no Backward call. With every parameter frozen there is no backward
// pass. This is what makes a locked CONV prefix cost no backward work,
// and it is exact because a layer's Backward changes nothing except its
// parameter gradients, the dx it returns and the dy it was given (see
// Layer): every trainable gradient comes from the same calls, in the
// same order, as a full backward.
func (n *Network) TrainStep(x *tensor.Tensor, labels []int) (loss, acc float64) {
	start := stepStart()
	return n.trainAbove(n.ForwardFrozen(x), labels, start)
}

// FrozenDepth returns how many leading layers form the frozen prefix:
// the layers below the lowest trainable one, up to the first whose
// training forward does not treat each sample on its own and
// deterministically (only Conv2D, ReLU and MaxPool2D do). A sample's
// prefix output is then the same in every training step until a weight
// in the prefix changes, so a caller may compute it once with
// ForwardFrozen, in batches of any size, and pass it to TrainStepAbove
// as often as it likes. Freezing or unfreezing a layer moves the depth.
func (n *Network) FrozenDepth() int {
	stop := n.stopLayer()
	for i, l := range n.Layers[:stop] {
		if _, ok := l.(frozenForwarder); !ok {
			return i
		}
	}
	return stop
}

// ForwardFrozen runs the frozen prefix (FrozenDepth) over x with
// training arithmetic, keeping no backward state: no Backward ever
// reaches these layers, and whatever state earlier training left in
// them is released.
func (n *Network) ForwardFrozen(x *tensor.Tensor) *tensor.Tensor {
	return n.forward(x, n.Layers[:n.FrozenDepth()], true, true)
}

// ForwardFrozenChunks returns ForwardFrozen over the input of items
// items, computed chunk items at a time into one tensor: input(i0, i1)
// builds the rows of items [i0, i1), and the result holds every chunk's
// output rows in item order. The prefix treats each sample on its own,
// so the rows are those of one call over all the input; chunking only
// bounds how much input is live at once.
func (n *Network) ForwardFrozenChunks(items, chunk int, input func(i0, i1 int) *tensor.Tensor) *tensor.Tensor {
	var out *tensor.Tensor
	off := 0
	for i0 := 0; i0 < items; i0 += chunk {
		i1 := min(i0+chunk, items)
		h := n.ForwardFrozen(input(i0, i1))
		if out == nil {
			shape := h.Shape()
			shape[0] = shape[0] / (i1 - i0) * items
			out = tensor.New(shape...)
		}
		off += copy(out.Data[off:], h.Data)
	}
	return out
}

// TrainStepAbove is TrainStep given h = ForwardFrozen(x): it runs the
// layers above the frozen prefix forward, then backward down to the
// lowest trainable layer. It counts as one training step.
func (n *Network) TrainStepAbove(h *tensor.Tensor, labels []int) (loss, acc float64) {
	return n.trainAbove(h, labels, stepStart())
}

// stepStart is a training step's start time; it reads the clock only
// when telemetry is on.
func stepStart() (t time.Time) {
	if nstats.Load() != nil {
		t = time.Now()
	}
	return t
}

// trainAbove is TrainStepAbove for a step that started at start.
func (n *Network) trainAbove(h *tensor.Tensor, labels []int, start time.Time) (loss, acc float64) {
	s := nstats.Load()
	logits := n.ForwardLayers(h, n.FrozenDepth(), len(n.Layers), true)
	loss, grad := n.loss.LossAndGrad(logits, labels)
	acc = Accuracy(logits, labels)
	stop := n.stopLayer()
	for i := len(n.Layers) - 1; i >= stop; i-- {
		var t0 time.Time
		if s != nil {
			t0 = time.Now()
		}
		l := n.Layers[i]
		if pg, ok := l.(paramGrader); ok && i == stop {
			pg.backwardParams(grad)
		} else {
			grad = l.Backward(grad)
		}
		if s != nil {
			s.observeBackward(l.Name(), time.Since(t0))
		}
	}
	if s != nil {
		s.trainSteps.Add(1)
		s.stepLoss.Set(loss)
		s.stepTime.Observe(float64(time.Since(start)) / float64(time.Microsecond))
	}
	return loss, acc
}

// frozenForwarder is implemented by the layers whose training forward
// treats each sample on its own and deterministically. forwardFrozen is
// that forward's arithmetic without the state Backward would need, and
// it drops whatever backward state the layer still holds.
type frozenForwarder interface {
	forwardFrozen(x *tensor.Tensor) *tensor.Tensor
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
			if !p.Frozen {
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

// String summarizes the architecture.
func (n *Network) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Network %q:", n.Name)
	for _, l := range n.Layers {
		fmt.Fprintf(&b, " %s", l.Name())
	}
	return b.String()
}
