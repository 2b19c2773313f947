// Package core is the node half of the In-situ AI closed loop of the
// paper's Fig. 4 (capture → diagnose → upload, then deliver → apply →
// evaluate), plus the four deep-learning IoT system variants of Fig. 24
// that the evaluation compares:
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
// The Cloud half is cloud.Server; internal/fleet drives the two over N
// nodes (N = 1 is the single deployment behind Table II and Fig. 25).
package core

import (
	"fmt"

	"insitu/internal/cloud"
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

// AllKinds lists the variants in the paper's (a)–(d) order.
func AllKinds() []SystemKind {
	return []SystemKind{SystemCloudAll, SystemCloudDiagnosis, SystemInSituDiagnosis, SystemInSituAI}
}

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

// StepsFor scales training steps to a stage's data volume; see
// cloud.StepsFor.
func StepsFor(n int) int { return cloud.StepsFor(n) }

// CalibTarget converts a measured error rate into a diagnosis upload
// budget; see cloud.CalibTarget.
func CalibTarget(errRate float64) float64 { return cloud.CalibTarget(errRate) }
