// Package core is the In-situ AI framework itself: it wires the
// substrates (synthetic IoT data, the jigsaw unsupervised network, the
// inference network, the node-side diagnosis task, the uplink meter and
// the Cloud cost model) into the closed incremental-learning loop of the
// paper's Fig. 4, and implements the four deep-learning IoT system
// variants of Fig. 24 that the evaluation compares:
//
//	(a) SystemCloudAll        — every captured image moves to the Cloud;
//	                            pre-training and updates use all data.
//	(b) SystemCloudDiagnosis  — every image moves to the Cloud, but a
//	                            Cloud-side diagnosis filters what is
//	                            retrained on.
//	(c) SystemInSituDiagnosis — the diagnosis task runs on the node; only
//	                            unrecognized data moves.
//	(d) SystemInSituAI        — (c) plus two-level weight sharing: the
//	                            incremental update trains only the layers
//	                            past the shared CONV prefix.
//
// Each RunStage captures a batch of in-situ data, moves what the variant
// moves, incrementally updates the models, redeploys them to the node,
// and reports data movement, uplink energy, modeled Cloud cost and node
// accuracy — the raw series behind Table II and Fig. 25.
package core

import (
	"fmt"

	"insitu/internal/cloud"
	"insitu/internal/deploy"
	"insitu/internal/diagnosis"
	"insitu/internal/models"
	"insitu/internal/netsim"
	"insitu/internal/nn"
	"insitu/internal/telemetry"
)

// SystemKind selects one of the Fig. 24 variants.
type SystemKind int

const (
	// SystemCloudAll is Fig. 24(a).
	SystemCloudAll SystemKind = iota
	// SystemCloudDiagnosis is Fig. 24(b).
	SystemCloudDiagnosis
	// SystemInSituDiagnosis is Fig. 24(c).
	SystemInSituDiagnosis
	// SystemInSituAI is Fig. 24(d) — the paper's proposal.
	SystemInSituAI
)

// String implements fmt.Stringer.
func (k SystemKind) String() string {
	switch k {
	case SystemCloudAll:
		return "a:cloud-all"
	case SystemCloudDiagnosis:
		return "b:cloud-diagnosis"
	case SystemInSituDiagnosis:
		return "c:insitu-diagnosis"
	case SystemInSituAI:
		return "d:insitu-ai"
	default:
		return fmt.Sprintf("SystemKind(%d)", int(k))
	}
}

// UsesNodeDiagnosis reports whether the variant filters on the node.
func (k SystemKind) UsesNodeDiagnosis() bool {
	return k == SystemInSituDiagnosis || k == SystemInSituAI
}

// UsesWeightSharing reports whether updates lock the shared CONV prefix.
func (k SystemKind) UsesWeightSharing() bool { return k == SystemInSituAI }

// FiltersTraining reports whether Cloud training uses only valuable data.
func (k SystemKind) FiltersTraining() bool { return k != SystemCloudAll }

// Config parameterizes a system simulation.
type Config struct {
	Kind        SystemKind
	Classes     int
	PermClasses int
	// SharedConvs is the weight-shared CONV prefix depth (variant d).
	SharedConvs int
	Seed        uint64
	// InSituFrac is the fraction of captured data under in-situ
	// pathologies; Severity their strength.
	InSituFrac float64
	Severity   float64
	Link       netsim.Uplink
	// FullScaleSpec prices Cloud work at paper scale (default AlexNet).
	FullScaleSpec models.NetSpec
	Cost          cloud.CostModel
	// Probes is the diagnosis probe count per image.
	Probes int
	// Faults injects corruption/drops/outages into the Cloud→node
	// downlink (the OTA deploy path). The zero value is a perfect link.
	Faults netsim.FaultConfig
	// DeployRetries bounds redelivery attempts per stage before the
	// deployment is abandoned and the node keeps its previous model.
	DeployRetries int
	// FrozenModel turns the system into the paper's Fig. 1(b) baseline:
	// the statically trained edge model. Nothing uploads after the
	// bootstrap and nothing updates — the motivation experiment for
	// incremental learning under environment drift.
	FrozenModel bool
	// Trace, when non-nil, receives core.stage / core.upload /
	// core.deploy events for every Bootstrap and RunStage.
	Trace *telemetry.Tracer
}

// DefaultConfig returns a validated configuration for the given variant.
func DefaultConfig(kind SystemKind, seed uint64) Config {
	return Config{
		Kind:          kind,
		Classes:       5,
		PermClasses:   8,
		SharedConvs:   3,
		Seed:          seed,
		InSituFrac:    0.6,
		Severity:      0.7,
		Link:          netsim.WiFi(),
		FullScaleSpec: models.AlexNet(),
		Cost:          cloud.NewCostModel(),
		Probes:        3,
		DeployRetries: 3,
	}
}

// StageReport is the outcome of one incremental stage.
type StageReport struct {
	Stage    int
	Kind     SystemKind
	Captured int
	// Uploaded is the number of images moved to the Cloud this stage.
	Uploaded      int
	UploadedBytes int64
	UploadFrac    float64
	UplinkJoules  float64
	UplinkSeconds float64
	// Trained is the number of samples the Cloud retrained on.
	Trained int
	// CloudCost is the modeled full-scale update cost (Titan X).
	CloudCost cloud.Cost
	// NodeAccuracy is the deployed model's accuracy on fresh data after
	// the update.
	NodeAccuracy float64
	// DiagnosisQuality relates node verdicts to actual errors (only
	// meaningful for variants with node diagnosis).
	DiagnosisQuality diagnosis.Quality
	// DownlinkBytes is the size of the model bundle shipped back to the
	// node (identical machinery across variants).
	DownlinkBytes int64
	// ModelVersion is the bundle version the node runs after this stage.
	ModelVersion uint32
	// CalibUploaded is how many of the uploaded images were calibration
	// traffic (extra metered uploads for the in-situ variants).
	CalibUploaded int
	// DeployAttempts counts downlink deliveries of this stage's bundle
	// (1 on a clean link, 0 when nothing deploys).
	DeployAttempts int
	// DeployFailed is set when every delivery attempt failed; the node
	// keeps serving its previous model (graceful degradation).
	DeployFailed bool
	// StaleModel is set while the node's model version lags the Cloud's
	// latest published bundle.
	StaleModel bool
	// RetransmitBytes is the extra downlink traffic spent redelivering
	// this stage's bundle after drops/corruption.
	RetransmitBytes int64
	// DeployBackoffSeconds is the modeled time spent waiting between
	// redelivery attempts (0.5 s base, doubling per retry).
	DeployBackoffSeconds float64
}

// System is one simulated IoT deployment: the Cloud half and one node
// half of the loop, driven synchronously. The two hold separate copies
// of both networks; updates travel as checksummed deploy.Bundle frames,
// exactly like a real OTA pipeline.
type System struct {
	Cfg Config

	cloud *cloud.Server
	node  *Node
	stage int
}

// NewSystem constructs a system; call Bootstrap before RunStage.
func NewSystem(cfg Config) *System {
	return &System{
		Cfg: cfg,
		cloud: cloud.NewServer(cloud.Config{
			Classes:       cfg.Classes,
			PermClasses:   cfg.PermClasses,
			SharedConvs:   cfg.SharedConvs,
			Probes:        cfg.Probes,
			Seed:          cfg.Seed,
			FullScaleSpec: cfg.FullScaleSpec,
			Cost:          cfg.Cost,
		}),
		node: NewNode(NodeConfig{
			Kind:          cfg.Kind,
			Classes:       cfg.Classes,
			PermClasses:   cfg.PermClasses,
			Probes:        cfg.Probes,
			Seed:          cfg.Seed,
			GenSeed:       cfg.Seed,
			InSituFrac:    cfg.InSituFrac,
			Severity:      cfg.Severity,
			Link:          cfg.Link,
			Downlink:      cfg.Faults,
			DeployRetries: cfg.DeployRetries,
			OnFault:       countDeliveryFault,
		}),
	}
}

// SetFaults swaps the downlink fault model for subsequent stages — e.g.
// healing the link after an injected outage, the counterpart of
// SetSeverity for the network environment.
func (s *System) SetFaults(cfg netsim.FaultConfig) {
	s.Cfg.Faults = cfg
	s.node.downlink = newLink(s.Cfg.Link, cfg)
}

// SetSeverity adjusts the in-situ condition severity for subsequent
// stages — environment drift, the "ever-changing in-situ environments"
// of the paper's motivation.
func (s *System) SetSeverity(severity float64) {
	s.Cfg.Severity = severity
	s.node.cfg.Severity = severity
}

// countDeliveryFault maps the delivery loop's fault taxonomy onto the
// package's telemetry counters.
func countDeliveryFault(f deploy.Fault) {
	switch f {
	case deploy.FaultRetry:
		countDeployFault(func(st *coreStats) *telemetry.Counter { return st.deployRetries })
	case deploy.FaultDrop:
		countDeployFault(func(st *coreStats) *telemetry.Counter { return st.deployDrops })
	case deploy.FaultCorrupt:
		countDeployFault(func(st *coreStats) *telemetry.Counter { return st.deployCorruptions })
	case deploy.FaultRollback:
		countDeployFault(func(st *coreStats) *telemetry.Counter { return st.deployRollbacks })
	case deploy.FaultFailure:
		countDeployFault(func(st *coreStats) *telemetry.Counter { return st.deployFailures })
	}
}

// Meter exposes the node's uplink meter.
func (s *System) Meter() *netsim.Meter { return s.node.meter }

// InferenceNet exposes the node's deployed inference network.
func (s *System) InferenceNet() *nn.Network { return s.node.infer }

// ModelVersion returns the bundle version the node currently runs.
func (s *System) ModelVersion() uint32 { return s.node.version }

// CloudVersion returns the latest bundle version the Cloud published;
// it exceeds ModelVersion while deployments are failing.
func (s *System) CloudVersion() uint32 { return s.cloud.Version() }

// Downlink exposes the fault-injected downlink, nil on a perfect link.
func (s *System) Downlink() *netsim.LossyLink { return s.node.downlink }

// Bootstrap performs the paper's initialization: n images are captured
// and (in every variant) moved to the Cloud, which pre-trains, transfers,
// fine-tunes and calibrates on them and deploys the initial models to
// the node.
func (s *System) Bootstrap(n int) StageReport {
	if s.stage != 0 {
		panic("core: Bootstrap after stages have run")
	}
	up := s.node.Capture(n, true)
	s.cloud.Bootstrap(up.Samples)
	return s.finish(up, len(up.Samples), 0)
}

// RunStage captures n new images and runs one incremental update.
func (s *System) RunStage(n int) StageReport {
	if s.stage == 0 {
		panic("core: RunStage before Bootstrap")
	}
	// The static-edge baseline processes everything locally and never
	// adapts: grade the diagnosis and the model, move nothing.
	if s.Cfg.FrozenModel {
		quality := diagnosis.Measure(s.node.diag, s.node.infer, s.node.draw(n))
		rep := StageReport{
			Stage:            s.stage,
			Kind:             s.Cfg.Kind,
			Captured:         n,
			NodeAccuracy:     s.node.evaluate(),
			DiagnosisQuality: quality,
			ModelVersion:     s.node.version,
			StaleModel:       s.node.version < s.cloud.Version(),
		}
		s.stage++
		s.record(rep)
		return rep
	}
	up := s.node.Capture(n, false)
	locked := 0
	if s.Cfg.Kind.UsesWeightSharing() {
		locked = s.Cfg.SharedConvs
	}
	trained := s.cloud.Update(up.Samples, up.Calib, locked, s.Cfg.Kind == SystemCloudDiagnosis)
	return s.finish(up, trained, locked)
}

// finish closes a stage once the Cloud has retrained: publish and
// deliver the next bundle, price the retrain at full scale, grade the
// node and assemble the report. A bundle the Cloud cannot even pack
// counts as a failed deployment — nothing was transmitted and the node
// keeps serving what it has.
func (s *System) finish(up Upload, trained, locked int) StageReport {
	var dep deploy.Result
	if bundle, err := s.cloud.Pack(); err != nil {
		countDeployFault(func(st *coreStats) *telemetry.Counter { return st.deployFailures })
		dep = deploy.Result{Failed: true, Err: fmt.Errorf("core: packing deployment: %w", err)}
	} else {
		dep = s.node.deliver(bundle)
	}
	var cost cloud.Cost
	if trained > 0 {
		var update cloud.Cost
		cost, update = s.cloud.Costs(trained, locked)
		cost.Add(update)
	}
	rep := StageReport{
		Stage:                s.stage,
		Kind:                 s.Cfg.Kind,
		Captured:             up.Captured,
		Uploaded:             up.Uploaded,
		UploadedBytes:        up.UpBytes,
		UploadFrac:           float64(up.Uploaded) / float64(up.Captured),
		UplinkJoules:         up.UplinkJ,
		UplinkSeconds:        up.UplinkS,
		Trained:              trained,
		CloudCost:            cost,
		NodeAccuracy:         s.node.evaluate(),
		DiagnosisQuality:     up.Quality,
		DownlinkBytes:        dep.Bytes,
		ModelVersion:         s.node.version,
		CalibUploaded:        up.CalibN,
		DeployAttempts:       dep.Attempts,
		DeployFailed:         dep.Failed,
		StaleModel:           s.node.version < s.cloud.Version(),
		RetransmitBytes:      dep.Retransmits,
		DeployBackoffSeconds: dep.Backoff,
	}
	s.stage++
	s.record(rep)
	return rep
}

// StepsFor scales training steps to a stage's data volume; see
// cloud.StepsFor.
func StepsFor(n int) int { return cloud.StepsFor(n) }

// CalibTarget converts a measured error rate into a diagnosis upload
// budget; see cloud.CalibTarget.
func CalibTarget(errRate float64) float64 { return cloud.CalibTarget(errRate) }
