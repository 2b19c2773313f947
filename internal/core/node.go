package core

import (
	"fmt"
	"io"
	"math"

	"insitu/internal/ckpt"
	"insitu/internal/cloud"
	"insitu/internal/dataset"
	"insitu/internal/deploy"
	"insitu/internal/diagnosis"
	"insitu/internal/netsim"
	"insitu/internal/nn"
	"insitu/internal/train"
)

// NodeConfig is everything one node is built from. Seeds and fault
// configs are explicit, so every driver — System for its single node,
// the fleet per node id, a wire agent from its handshake — decides its
// own derivation and none shares a stream with another node.
type NodeConfig struct {
	// ID names the node to its driver and in errors; it seeds nothing.
	ID          int
	Kind        SystemKind
	Classes     int
	PermClasses int
	Probes      int
	// Seed is the deployment's base seed: until the first deploy lands
	// the node runs the same initial models as the Cloud.
	Seed uint64
	// GenSeed seeds the node's dataset shard.
	GenSeed uint64
	// InSituFrac is the fraction of captured data under in-situ
	// pathologies; Severity their strength.
	InSituFrac float64
	Severity   float64
	Link       netsim.Uplink
	// Uplink and Downlink are the links' complete fault models, dice
	// seeds and outage windows included; the zero value is a perfect
	// link. A lost upload is lost for the round (the node still pays the
	// transmit energy); a lost deploy is redelivered up to DeployRetries
	// times.
	Uplink        netsim.FaultConfig
	Downlink      netsim.FaultConfig
	DeployRetries int
	// EvalSamples is how many fresh images the deployed model is graded
	// on after a deploy; 0 means the paper-faithful 120.
	EvalSamples int
	// OnFault, when set, observes every delivery-loop fault.
	OnFault func(deploy.Fault)
}

// Upload is a node's capture-phase answer. Samples is nil when the
// uplink lost the batch (Failed) — the transmit cost is metered anyway.
type Upload struct {
	// Captured is the denominator of the upload fraction: the capture,
	// plus the calibration set when that is extra metered traffic.
	Captured int
	Uploaded int
	// CalibN is how many of Uploaded were calibration traffic.
	CalibN  int
	UpBytes int64
	UplinkJ float64
	UplinkS float64
	Failed  bool
	Samples []dataset.Sample
	// Calib is the uniformly sampled calibration set the Cloud measures
	// the updated model's error rate on (empty at bootstrap).
	Calib []dataset.Sample
	// Quality relates the node's verdicts on the capture to its actual
	// errors, before the round's update.
	Quality diagnosis.Quality
}

// Deployed is a node's deploy-phase answer: how the delivery went and
// the accuracy of whatever model the node runs afterwards.
type Deployed struct {
	deploy.Result
	Accuracy float64
}

// deployBackoffBase is the modeled wait before the first redelivery; it
// doubles per retry (0.5 s, 1 s, 2 s, …).
const deployBackoffBase = 0.5

// Node is the node half of the closed loop: its own dataset shard, its
// deployed copies of both networks and the diagnoser, an uplink meter
// and seeded lossy links in both directions. Capture is the way up
// (capture → diagnose → upload), Deploy the way down (deliver → apply →
// evaluate). The same type serves System, an in-process fleet shard and
// a wire agent; it is not safe for concurrent use.
type Node struct {
	cfg      NodeConfig
	gen      *dataset.Generator
	infer    *nn.Network
	jig      *nn.Network
	diag     diagnosis.Diagnoser
	meter    *netsim.Meter
	uplink   *netsim.LossyLink // nil = perfect
	downlink *netsim.LossyLink // nil = perfect
	version  uint32
}

// NewNode builds a node at the deployment's initial models.
func NewNode(cfg NodeConfig) *Node {
	n := &Node{
		cfg:      cfg,
		gen:      dataset.NewGenerator(cfg.Classes, cfg.GenSeed),
		meter:    netsim.NewMeter(cfg.Link),
		uplink:   newLink(cfg.Link, cfg.Uplink),
		downlink: newLink(cfg.Link, cfg.Downlink),
	}
	n.infer, n.jig = cloud.NewModels(cfg.Classes, cfg.PermClasses, cfg.Seed)
	n.diag = diagnosis.NewJigsawDiagnoser(n.jig,
		cloud.NewPermSet(cfg.PermClasses, cfg.Seed), cfg.Probes, 0)
	return n
}

// ID returns the id the node was configured with.
func (n *Node) ID() int { return n.cfg.ID }

// newLink builds a lossy link, or nil when cfg describes a perfect one.
func newLink(up netsim.Uplink, cfg netsim.FaultConfig) *netsim.LossyLink {
	if !cfg.Enabled() {
		return nil
	}
	return netsim.NewLossyLink(up, cfg)
}

// draw renders the shard's next count images under the node's current
// environment.
func (n *Node) draw(count int) []dataset.Sample {
	return n.gen.MixedSet(count, n.cfg.InSituFrac, n.cfg.Severity)
}

// Capture runs the way up: render the shard's next count images, grade
// the diagnosis on them, decide what moves and push it through the
// uplink. A bootstrap capture moves everything raw. Afterwards a small
// uniformly sampled calibration set always moves as well, so the Cloud
// can measure the updated model's error rate without bias: for variants
// (a)/(b) it is part of the full stream and rides unmetered, for (c)/(d)
// it is extra metered traffic on top of the unrecognized images and
// counts into Captured — otherwise the upload fraction could exceed 1
// early on, when the diagnoser still flags nearly everything.
func (n *Node) Capture(count int, bootstrap bool) Upload {
	capture := n.draw(count)
	up := Upload{Captured: count}
	moved := capture
	if !bootstrap {
		var unrecognized []dataset.Sample
		up.Quality, unrecognized = diagnosis.Assess(n.diag, n.infer, capture)
		calibN := count / 10
		if calibN < 12 {
			calibN = 12
		}
		up.Calib = n.draw(calibN)
		if n.cfg.Kind.UsesNodeDiagnosis() {
			moved = append(unrecognized, up.Calib...)
			up.CalibN = calibN
			up.Captured += calibN
		}
	}
	up.Uploaded = len(moved)
	up.UpBytes = int64(len(moved)) * dataset.ImageBytes
	up.UplinkJ = n.cfg.Link.TransferEnergy(up.UpBytes)
	up.UplinkS = n.cfg.Link.TransferTime(up.UpBytes)
	n.meter.UploadItems(up.UpBytes, int64(len(moved)))

	// Dropped outright, or corrupted and rejected by the Cloud's frame
	// check: the batch is lost (there is no uplink retry budget), but the
	// transmit energy above is already spent.
	if n.uplink != nil && up.UpBytes > 0 && n.uplink.Transmit(up.UpBytes) != netsim.DeliverOK {
		up.Failed = true
		return up
	}
	up.Samples = moved
	return up
}

// Deploy runs the way down: deliver the bundle through the downlink,
// then grade whatever model the node now runs on fresh data from its
// own shard.
func (n *Node) Deploy(b *deploy.Bundle) Deployed {
	return Deployed{Result: n.deliver(b), Accuracy: n.evaluate()}
}

// deliver ships the bundle over the (possibly faulty) downlink with
// retry, exponential backoff and rollback; every redelivery is metered.
// On persistent failure the node is left exactly as it was, serving its
// previous version — the next round's bundle re-converges it once the
// link lets one through.
func (n *Node) deliver(b *deploy.Bundle) deploy.Result {
	res := deploy.Downlink{
		Link:        n.downlink,
		Meter:       n.meter,
		Retries:     n.cfg.DeployRetries,
		BackoffBase: deployBackoffBase,
		OnFault:     n.cfg.OnFault,
	}.Deliver(b, deploy.Target{
		Current:   n.version,
		Inference: n.infer,
		Jigsaw:    n.jig,
		Diag:      n.diag,
	})
	n.version = res.Version
	return res
}

// evaluate measures the deployed model's accuracy on a fresh capture
// mix.
func (n *Node) evaluate() float64 {
	count := n.cfg.EvalSamples
	if count <= 0 {
		count = 120
	}
	return train.Evaluate(n.infer, n.draw(count))
}

// The node's state on the wire and on disk: version, RNG position,
// threshold, the 12-word meter, a 6-word block per lossy link, then both
// networks. A fleet checkpoint frames one such blob per node, a wire
// agent ships the same bytes over MsgStateBlob, the shard LRU spills
// them — so a blob is interchangeable across all of them.

// SaveState writes the node's complete mutable state to w.
func (n *Node) SaveState(w io.Writer) error {
	m := n.meter
	if err := ckpt.WriteU64s(w,
		uint64(n.version), n.gen.RNGState(),
		math.Float64bits(n.diag.Threshold()),
		ckpt.BoolU64(n.uplink != nil), ckpt.BoolU64(n.downlink != nil),

		uint64(m.Bytes), uint64(m.Items),
		math.Float64bits(m.Seconds), math.Float64bits(m.Joules),
		uint64(m.Retransmits), uint64(m.RetransmitBytes),
		math.Float64bits(m.RetransmitSecs), math.Float64bits(m.RetransmitJoules),
		uint64(m.Downloads), uint64(m.DownlinkBytes),
		math.Float64bits(m.DownlinkSecs), math.Float64bits(m.DownlinkJoules),
	); err != nil {
		return err
	}
	for _, link := range []*netsim.LossyLink{n.uplink, n.downlink} {
		if link == nil {
			continue
		}
		st := link.Snapshot()
		if err := ckpt.WriteU64s(w,
			uint64(st.Seq), uint64(st.Stats.Transfers), uint64(st.Stats.Corrupted),
			uint64(st.Stats.Dropped), uint64(st.Stats.OutageDrops), st.RNGState,
		); err != nil {
			return err
		}
	}
	for _, net := range []*nn.Network{n.infer, n.jig} {
		if err := ckpt.WriteBlob(w, net.SaveWeights); err != nil {
			return err
		}
		if err := ckpt.WriteBlob(w, net.SaveLayerState); err != nil {
			return err
		}
	}
	return nil
}

// LoadState restores state written by SaveState into a node built from
// the same NodeConfig. The restored weights are checked for finiteness:
// a blob that decodes cleanly can still carry a poisoned model. On any
// error the node is partially restored and must not be used.
func (n *Node) LoadState(r io.Reader) error {
	w := make([]uint64, 17)
	if err := ckpt.ReadU64s(r, w); err != nil {
		return fmt.Errorf("core: restoring node %d: %w", n.cfg.ID, err)
	}
	if (w[3] != 0) != (n.uplink != nil) || (w[4] != 0) != (n.downlink != nil) {
		return fmt.Errorf("%w: node %d link topology differs", ErrConfigMismatch, n.cfg.ID)
	}
	n.version = uint32(w[0])
	n.gen.SetRNGState(w[1])
	n.diag.SetThreshold(math.Float64frombits(w[2]))
	m := n.meter
	m.Bytes, m.Items = int64(w[5]), int64(w[6])
	m.Seconds, m.Joules = math.Float64frombits(w[7]), math.Float64frombits(w[8])
	m.Retransmits, m.RetransmitBytes = int64(w[9]), int64(w[10])
	m.RetransmitSecs, m.RetransmitJoules = math.Float64frombits(w[11]), math.Float64frombits(w[12])
	m.Downloads, m.DownlinkBytes = int64(w[13]), int64(w[14])
	m.DownlinkSecs, m.DownlinkJoules = math.Float64frombits(w[15]), math.Float64frombits(w[16])
	for _, link := range []*netsim.LossyLink{n.uplink, n.downlink} {
		if link == nil {
			continue
		}
		ls := make([]uint64, 6)
		if err := ckpt.ReadU64s(r, ls); err != nil {
			return fmt.Errorf("core: restoring node %d links: %w", n.cfg.ID, err)
		}
		link.Restore(netsim.LinkState{
			Seq: int64(ls[0]),
			Stats: netsim.LinkStats{
				Transfers: int64(ls[1]), Corrupted: int64(ls[2]),
				Dropped: int64(ls[3]), OutageDrops: int64(ls[4]),
			},
			RNGState: ls[5],
		})
	}
	for _, net := range []*nn.Network{n.infer, n.jig} {
		if err := ckpt.ReadBlob(r, net.LoadWeights); err != nil {
			return fmt.Errorf("core: restoring node %d weights: %w", n.cfg.ID, err)
		}
		if err := ckpt.ReadBlob(r, net.LoadLayerState); err != nil {
			return fmt.Errorf("core: restoring node %d layer state: %w", n.cfg.ID, err)
		}
	}
	for _, net := range []*nn.Network{n.infer, n.jig} {
		if err := net.CheckFinite(); err != nil {
			return fmt.Errorf("core: refusing to restore node %d: %w", n.cfg.ID, err)
		}
	}
	return nil
}
