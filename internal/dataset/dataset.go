// Package dataset synthesizes the IoT image data for the In-situ AI
// reproduction. It stands in for ImageNet/Snapshot-Serengeti (which we
// cannot ship): a procedural generator renders parametric "animal"
// classes onto textured backgrounds under either *ideal* conditions
// (centered, whole body, good light — the static training set of the
// paper's Fig. 1(b) Cloud) or *in-situ* conditions reproducing the
// paper's Fig. 2 pathologies: the animal too close to the camera (b),
// random poses (c), and poor illumination (d), plus sensor noise and
// partial occlusion.
//
// The generator is fully deterministic given a seed, produces unlimited
// labeled and unlabeled data, and exposes a severity knob so the
// environment can drift over incremental-update stages.
package dataset

import (
	"fmt"
	"math"

	"insitu/internal/models"
	"insitu/internal/tensor"
)

// Condition describes how a sample was captured.
type Condition int

const (
	// Ideal is the curated training condition: centered subject, full
	// body, frontal pose, good illumination.
	Ideal Condition = iota
	// TooClose crops the subject as in the paper's Fig. 2(b).
	TooClose
	// RandomPose rotates the subject arbitrarily, Fig. 2(c).
	RandomPose
	// PoorIllumination darkens the scene and raises noise, Fig. 2(d).
	PoorIllumination
	// Occluded hides part of the subject behind foreground clutter.
	Occluded
)

// String implements fmt.Stringer.
func (c Condition) String() string {
	switch c {
	case Ideal:
		return "ideal"
	case TooClose:
		return "too-close"
	case RandomPose:
		return "random-pose"
	case PoorIllumination:
		return "poor-illumination"
	case Occluded:
		return "occluded"
	default:
		return fmt.Sprintf("Condition(%d)", int(c))
	}
}

// Sample is one labeled image.
type Sample struct {
	Image     *tensor.Tensor // [3, 36, 36], values in [0,1]
	Label     int
	Condition Condition
}

// classSig is the deterministic visual signature of one class.
type classSig struct {
	hue     [3]float32 // body base color
	aspect  float64    // body ellipse aspect ratio
	stripeF float64    // stripe spatial frequency (0 = none)
	spotD   float64    // spot density (0 = none)
	size    float64    // body scale relative to image
	headAng float64    // where the head sits on the body rim
}

// Generator produces synthetic IoT samples. It is not safe for concurrent
// use; create one per goroutine with distinct seeds.
type Generator struct {
	Classes int
	rng     *tensor.RNG
	sigs    []classSig
}

// NewGenerator creates a generator with the given number of classes.
func NewGenerator(classes int, seed uint64) *Generator {
	if classes < 2 {
		panic("dataset: need at least 2 classes")
	}
	g := &Generator{Classes: classes, rng: tensor.NewRNG(seed)}
	// Class signatures come from a fixed-seed RNG so that two generators
	// with different sample seeds still agree on what each class looks
	// like — nodes and Cloud must share the label space.
	sigRNG := tensor.NewRNG(0xC1A55E5)
	g.sigs = make([]classSig, classes)
	for i := range g.sigs {
		s := &g.sigs[i]
		base := float32(0.25 + 0.6*sigRNG.Float64())
		s.hue = [3]float32{
			base,
			float32(0.2 + 0.7*sigRNG.Float64()),
			float32(0.2 + 0.7*sigRNG.Float64()),
		}
		s.aspect = 0.45 + 0.5*sigRNG.Float64()
		if i%3 == 0 {
			s.stripeF = 2.5 + 3*sigRNG.Float64()
		}
		if i%3 == 1 {
			s.spotD = 0.2 + 0.3*sigRNG.Float64()
		}
		s.size = 0.28 + 0.12*sigRNG.Float64()
		s.headAng = sigRNG.Float64() * 2 * math.Pi
	}
	return g
}

// RNGState exposes the sample stream position for checkpointing: a
// generator restored with SetRNGState produces the same capture sequence
// an uninterrupted generator would.
func (g *Generator) RNGState() uint64 { return g.rng.State() }

// SetRNGState rewinds the sample stream to a saved position.
func (g *Generator) SetRNGState(s uint64) { g.rng.SetState(s) }

// Ideal renders one sample of a uniformly random class under ideal
// conditions.
func (g *Generator) Ideal() Sample {
	label := g.rng.Intn(g.Classes)
	return g.render(label, Ideal, 0)
}

// InSitu renders one sample under a random in-situ pathology whose
// strength scales with severity in [0, 1].
func (g *Generator) InSitu(severity float64) Sample {
	label := g.rng.Intn(g.Classes)
	cond := Condition(1 + g.rng.Intn(4))
	return g.render(label, cond, severity)
}

func (g *Generator) render(label int, cond Condition, severity float64) Sample {
	const S = models.ImgSize
	sig := g.sigs[label]
	img := tensor.New(models.ImgChannels, S, S)

	// Capture parameters by condition.
	scale := sig.size
	angle := 0.0
	bright := 1.0
	noise := 0.03
	occlude := false
	cx, cy := 0.5, 0.5
	switch cond {
	case Ideal:
		cx += 0.04 * (g.rng.Float64() - 0.5)
		cy += 0.04 * (g.rng.Float64() - 0.5)
		angle = 0.15 * (g.rng.Float64() - 0.5)
	case TooClose:
		scale *= 1.8 + 1.7*severity*g.rng.Float64()
		cx = 0.3 + 0.4*g.rng.Float64()
		cy = 0.3 + 0.4*g.rng.Float64()
	case RandomPose:
		angle = (0.5 + severity) * math.Pi * (g.rng.Float64() - 0.5) * 2
		cx = 0.35 + 0.3*g.rng.Float64()
		cy = 0.35 + 0.3*g.rng.Float64()
	case PoorIllumination:
		bright = 0.45 - 0.25*severity*g.rng.Float64()
		noise = 0.08 + 0.10*severity
	case Occluded:
		occlude = true
		cx = 0.4 + 0.2*g.rng.Float64()
		cy = 0.4 + 0.2*g.rng.Float64()
	}

	// Background: low-frequency savanna texture.
	bgPhase := g.rng.Float64() * 2 * math.Pi
	bgTone := float32(0.35 + 0.2*g.rng.Float64())
	for y := 0; y < S; y++ {
		for x := 0; x < S; x++ {
			tex := float32(0.06 * math.Sin(float64(x)*0.4+bgPhase) * math.Cos(float64(y)*0.3))
			img.Set(bgTone+tex+0.05, 0, y, x)
			img.Set(bgTone+tex, 1, y, x)
			img.Set(bgTone*0.6+tex, 2, y, x)
		}
	}

	// Subject: rotated ellipse body with class pattern + head disc.
	rx := scale * S
	ry := rx * sig.aspect
	cosA, sinA := math.Cos(angle), math.Sin(angle)
	pcx, pcy := cx*S, cy*S
	stripePhase := g.rng.Float64() * 2 * math.Pi
	for y := 0; y < S; y++ {
		for x := 0; x < S; x++ {
			dx := float64(x) - pcx
			dy := float64(y) - pcy
			// into body frame
			u := dx*cosA + dy*sinA
			v := -dx*sinA + dy*cosA
			inBody := (u*u)/(rx*rx)+(v*v)/(ry*ry) <= 1
			// head: disc at the rim along headAng (in body frame)
			hx := rx * 0.9 * math.Cos(sig.headAng)
			hy := ry * 0.9 * math.Sin(sig.headAng)
			hr := ry * 0.55
			inHead := (u-hx)*(u-hx)+(v-hy)*(v-hy) <= hr*hr
			if !inBody && !inHead {
				continue
			}
			shade := float32(1.0)
			if sig.stripeF > 0 {
				if math.Sin(u*sig.stripeF/2+stripePhase) > 0.15 {
					shade = 0.55
				}
			}
			if sig.spotD > 0 {
				// deterministic pseudo-spots from position hash
				h := math.Sin(u*12.9898+v*78.233) * 43758.5453
				if h-math.Floor(h) < sig.spotD {
					shade = 0.5
				}
			}
			if inHead {
				shade *= 1.15
			}
			img.Set(sig.hue[0]*shade, 0, y, x)
			img.Set(sig.hue[1]*shade, 1, y, x)
			img.Set(sig.hue[2]*shade, 2, y, x)
		}
	}

	// Occlusion: a foreground bar of background-like tone.
	if occlude {
		w := int((0.25 + 0.35*severity) * S)
		if w < 4 {
			w = 4
		}
		x0 := g.rng.Intn(S - w)
		vertical := g.rng.Intn(2) == 0
		for a := 0; a < S; a++ {
			for b := x0; b < x0+w; b++ {
				y, x := a, b
				if vertical {
					y, x = b, a
				}
				img.Set(0.2, 0, y, x)
				img.Set(0.25, 1, y, x)
				img.Set(0.15, 2, y, x)
			}
		}
	}

	// Illumination and sensor noise.
	for i := range img.Data {
		v := float64(img.Data[i])*bright + noise*g.rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		img.Data[i] = float32(v)
	}
	return Sample{Image: img, Label: label, Condition: cond}
}

// IdealSet generates n ideal samples.
func (g *Generator) IdealSet(n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = g.Ideal()
	}
	return out
}

// InSituSet generates n in-situ samples at the given severity.
func (g *Generator) InSituSet(n int, severity float64) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = g.InSitu(severity)
	}
	return out
}

// MixedSet generates n samples of which insituFrac are in-situ.
func (g *Generator) MixedSet(n int, insituFrac, severity float64) []Sample {
	out := make([]Sample, n)
	for i := range out {
		if g.rng.Float64() < insituFrac {
			out[i] = g.InSitu(severity)
		} else {
			out[i] = g.Ideal()
		}
	}
	return out
}

// Batch packs samples[i:i+n] into a [n, 3, 36, 36] tensor plus labels.
func Batch(samples []Sample) (*tensor.Tensor, []int) {
	n := len(samples)
	if n == 0 {
		panic("dataset: empty batch")
	}
	per := samples[0].Image.Size()
	x := tensor.New(n, models.ImgChannels, models.ImgSize, models.ImgSize)
	labels := make([]int, n)
	for i, s := range samples {
		copy(x.Data[i*per:(i+1)*per], s.Image.Data)
		labels[i] = s.Label
	}
	return x, labels
}

// ImageBytes is the uplink cost of shipping one raw image (float32 RGB),
// used by the data-movement accounting. Real deployments would compress;
// the ratios in Table II are unaffected by a constant factor.
const ImageBytes = int64(models.ImgChannels * models.ImgSize * models.ImgSize * 4)
