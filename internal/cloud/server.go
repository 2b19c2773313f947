package cloud

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"insitu/internal/ckpt"
	"insitu/internal/dataset"
	"insitu/internal/deploy"
	"insitu/internal/diagnosis"
	"insitu/internal/jigsaw"
	"insitu/internal/models"
	"insitu/internal/nn"
	"insitu/internal/tensor"
	"insitu/internal/train"
	"insitu/internal/transfer"
)

// Config identifies one deployment's Cloud half. Every stream the
// Server owns is seeded from Seed: the permutation set (Seed+1), the two
// networks' initial weights (Seed+2, Seed+3 — NewModels, which the nodes
// call too, since they run the same models before the first deploy), the
// replay sampler (Seed+4) and the jigsaw trainer (Seed+5).
type Config struct {
	Classes     int
	PermClasses int
	// SharedConvs is the CONV prefix the inference network inherits from
	// the unsupervised one at bootstrap.
	SharedConvs int
	// Probes is the diagnosis probe count per image.
	Probes int
	Seed   uint64
	// FullScaleSpec prices the training work at paper scale.
	FullScaleSpec models.NetSpec
	Cost          CostModel
}

// NewPermSet derives the deployment's jigsaw permutation set.
func NewPermSet(permClasses int, seed uint64) *jigsaw.PermSet {
	return jigsaw.NewPermSet(permClasses, seed+1)
}

// NewModels builds the deployment's two networks at their initial
// weights.
func NewModels(classes, permClasses int, seed uint64) (infer, jig *nn.Network) {
	return models.TinyAlex(classes, seed+3), jigsaw.NewNet(permClasses, seed+2)
}

// incrementalLR is the gentler learning rate of every update after the
// bootstrap, for the jigsaw trainer and the fine-tune alike, so small
// hard-example sets do not destabilize the models.
const incrementalLR = 0.005

// Server is the Cloud half of the closed loop of the paper's Fig. 4: it
// owns the trained copies of both networks, the replay pool of every
// sample it has admitted, and the version counter of the bundles it
// publishes. Bootstrap and Update are the retrain; Pack is the deploy.
// Who captures the data and who receives the bundle — one synchronous
// node (core.System) or a fleet of them behind an admission cap
// (fleet.Fleet) — is the driver's business. A Server is not safe for
// concurrent use.
type Server struct {
	cfg      Config
	infer    *nn.Network
	jig      *nn.Network
	trainer  *jigsaw.Trainer
	diag     *diagnosis.JigsawDiagnoser
	diagSpec models.NetSpec
	pool     []dataset.Sample
	rng      *tensor.RNG // replay sampler
	version  uint32
}

// NewServer builds the Cloud half at its initial weights; call Bootstrap
// before Update.
func NewServer(cfg Config) *Server {
	if cfg.Classes < 2 || cfg.PermClasses < 2 {
		panic("cloud: bad config")
	}
	s := &Server{
		cfg:      cfg,
		diagSpec: models.DiagnosisSpec(cfg.FullScaleSpec, 100),
		rng:      tensor.NewRNG(cfg.Seed + 4),
	}
	s.infer, s.jig = NewModels(cfg.Classes, cfg.PermClasses, cfg.Seed)
	perms := NewPermSet(cfg.PermClasses, cfg.Seed)
	s.trainer = jigsaw.NewTrainer(s.jig, perms, 0.01, cfg.Seed+5)
	s.diag = diagnosis.NewJigsawDiagnoser(s.jig, perms, cfg.Probes, 0)
	return s
}

// Version returns the latest bundle version Pack published.
func (s *Server) Version() uint32 { return s.version }

// Bootstrap is the paper's initialization on the first uploads: the
// unsupervised network is pre-trained on them, the inference network is
// transfer-learned from it and fine-tuned on the labels, and the
// diagnosis threshold is calibrated against the trained model's own
// error rate. An empty set (every bootstrap upload lost) trains nothing.
func (s *Server) Bootstrap(set []dataset.Sample) {
	s.pool = append(s.pool, set...)
	if len(set) > 0 {
		s.trainJigsaw(set, 0)
		if _, err := transfer.FromUnsupervised(s.infer, s.jig, s.cfg.SharedConvs); err != nil {
			panic(fmt.Sprintf("cloud: transfer failed: %v", err))
		}
		train.Run(s.infer, set, train.DefaultConfig(StepsFor(len(set))), 0)
		errRate := 1 - train.Evaluate(s.infer, set)
		diagnosis.Calibrate(s.diag, set, CalibTarget(errRate))
	}
	s.trainer.Opt.LR = incrementalLR
}

// Update is one incremental retrain. set is what arrived this round and
// joins the replay pool whole; with cloudFilter (variant b) the Cloud's
// own diagnoser then keeps only what it does not recognize — the node
// copy of the threshold may lag a deploy behind. What is left updates
// the unsupervised network (so diagnosis tracks the drifting
// environment) and, mixed with replay, fine-tunes the inference network;
// locked > 0 freezes that many shared CONV layers in both (variant d).
// calibs, a uniform sample of the round's captures, then re-measures the
// error rate and recalibrates the threshold, blended half-and-half with
// the previous one so one noisy sample cannot swing the upload budget.
// Returns how many samples the retrain used.
func (s *Server) Update(set, calibs []dataset.Sample, locked int, cloudFilter bool) int {
	s.pool = append(s.pool, set...)
	if cloudFilter {
		_, set = diagnosis.Split(s.diag, set)
	}
	if len(set) > 0 {
		s.trainJigsaw(set, locked)
		mixed := s.withReplay(set)
		cfg := train.DefaultConfig(StepsFor(len(mixed)))
		cfg.LR = incrementalLR
		transfer.FineTune(s.infer, mixed, cfg, locked)
	}
	if len(calibs) > 0 {
		errRate := 1 - train.Evaluate(s.infer, calibs)
		prev := s.diag.Threshold()
		diagnosis.Calibrate(s.diag, calibs, CalibTarget(errRate))
		s.diag.SetThreshold(0.5*prev + 0.5*s.diag.Threshold())
	}
	return len(set)
}

// Pack publishes the next bundle version: both networks plus the
// calibrated threshold.
func (s *Server) Pack() (*deploy.Bundle, error) {
	s.version++
	return deploy.Pack(s.version, s.infer, s.jig, s.diag.Threshold())
}

// Costs prices one retrain on trained samples at full scale: the
// unsupervised update on the diagnosis network and the supervised one
// on the inference network, apart, so a fleet can amortize each over its
// uploaders.
func (s *Server) Costs(trained, locked int) (pretrain, update Cost) {
	return s.cfg.Cost.PretrainCost(s.diagSpec, trained, locked),
		s.cfg.Cost.UpdateCost(s.cfg.FullScaleSpec, trained, locked)
}

// trainJigsaw runs unsupervised training over the set in batches of 16.
// locked > 0 freezes the shared CONV prefix, keeping the trunk the
// inference network's locked layers were copied from stable.
func (s *Server) trainJigsaw(samples []dataset.Sample, locked int) {
	images := make([]*tensor.Tensor, len(samples))
	for i, smp := range samples {
		images[i] = smp.Image
	}
	prefixes := transfer.ConvPrefixes(locked)
	s.jig.FreezeLayers(prefixes...)
	const batch = 16
	steps := StepsFor(len(images))
	for step := 0; step < steps; step++ {
		i0 := (step * batch) % len(images)
		end := i0 + batch
		if end > len(images) {
			end = len(images)
		}
		s.trainer.Step(images[i0:end])
	}
	s.jig.UnfreezeLayers(prefixes...)
}

// withReplay mixes the fresh set with an equal-sized random sample of
// the pool, stabilizing hard-example-only updates.
func (s *Server) withReplay(fresh []dataset.Sample) []dataset.Sample {
	out := append([]dataset.Sample(nil), fresh...)
	for range fresh {
		out = append(out, s.pool[s.rng.Intn(len(s.pool))])
	}
	return out
}

// StepsFor scales training steps to a retrain's data volume: roughly
// eight epochs at batch 32, at least 40 steps.
func StepsFor(n int) int {
	steps := 8 * n / 32
	if steps < 40 {
		steps = 40
	}
	return steps
}

// CalibTarget converts a measured error rate into a diagnosis upload
// budget: upload a bit more than the error rate (to catch most errors)
// with a floor that keeps the loop alive.
func CalibTarget(errRate float64) float64 {
	t := errRate*1.2 + 0.05
	if t > 1 {
		t = 1
	}
	if t < 0.05 {
		t = 0.05
	}
	return t
}

// Save writes the Server's complete mutable state — version, RNG
// positions, the runtime-lowered learning rate, the threshold, both
// networks with their stochastic-layer state, the optimizer's momentum
// and the replay pool — so Load continues the run bit-identically. It
// issues many small writes; hand it a buffered writer.
func (s *Server) Save(w io.Writer) error {
	if err := ckpt.WriteU64s(w,
		uint64(s.version), s.trainer.RNGState(), s.rng.State(),
		uint64(math.Float32bits(s.trainer.Opt.LR)),
		math.Float64bits(s.diag.Threshold()),
	); err != nil {
		return err
	}
	for _, net := range []*nn.Network{s.infer, s.jig} {
		if err := ckpt.WriteBlob(w, net.SaveWeights); err != nil {
			return err
		}
		if err := ckpt.WriteBlob(w, net.SaveLayerState); err != nil {
			return err
		}
	}
	if err := ckpt.WriteBlob(w, func(w io.Writer) error {
		return s.trainer.Opt.SaveState(w, s.jig.Params())
	}); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s.pool))); err != nil {
		return err
	}
	buf := make([]byte, dataset.ImageBytes)
	for _, smp := range s.pool {
		if err := dataset.WriteSample(w, smp, buf); err != nil {
			return err
		}
	}
	return nil
}

// Load restores state written by Save into a Server built from the same
// Config. It reads exactly what Save wrote and no further, so the
// caller's stream may carry more behind it. Restored weights are checked
// for finiteness: a stream that decodes cleanly can still carry a
// poisoned model, and it is refused rather than served. On error the
// Server is partially restored and must be discarded.
func (s *Server) Load(r io.Reader) error {
	hdr := make([]uint64, 5)
	if err := ckpt.ReadU64s(r, hdr); err != nil {
		return fmt.Errorf("cloud: restoring counters: %w", err)
	}
	s.version = uint32(hdr[0])
	s.trainer.SetRNGState(hdr[1])
	s.rng.SetState(hdr[2])
	s.trainer.Opt.LR = math.Float32frombits(uint32(hdr[3]))
	s.diag.SetThreshold(math.Float64frombits(hdr[4]))
	for _, net := range []*nn.Network{s.infer, s.jig} {
		if err := ckpt.ReadBlob(r, net.LoadWeights); err != nil {
			return fmt.Errorf("cloud: restoring %s weights: %w", net.Name, err)
		}
		if err := ckpt.ReadBlob(r, net.LoadLayerState); err != nil {
			return fmt.Errorf("cloud: restoring %s layer state: %w", net.Name, err)
		}
	}
	if err := ckpt.ReadBlob(r, func(r io.Reader) error {
		return s.trainer.Opt.LoadState(r, s.jig.Params())
	}); err != nil {
		return fmt.Errorf("cloud: restoring optimizer state: %w", err)
	}
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("cloud: restoring replay pool: %w", err)
	}
	// count comes from the stream: grow as samples actually decode
	// instead of trusting it with an allocation.
	s.pool = nil
	buf := make([]byte, dataset.ImageBytes)
	for i := uint32(0); i < count; i++ {
		smp, err := dataset.ReadSample(r, buf)
		if err != nil {
			return fmt.Errorf("cloud: restoring replay sample %d of %d: %w", i, count, err)
		}
		s.pool = append(s.pool, smp)
	}
	for _, net := range []*nn.Network{s.infer, s.jig} {
		if err := net.CheckFinite(); err != nil {
			return fmt.Errorf("cloud: refusing to resume: %w", err)
		}
	}
	return nil
}
