package main

import (
	"fmt"
	"math"

	"insitu/internal/dataset"
	"insitu/internal/fleet"
)

// checker counts the operations a run attempted (one upload and one
// deploy per node per round, one per checkpoint) and the ones that
// failed: flagged node-rounds, checkpoint errors and every violated
// report invariant. Reports are not byte-reproducible across GOMAXPROCS
// yet (ROADMAP item 1), so the checks are invariants, not golden bytes.
type checker struct {
	w         workload
	attempted int
	failed    int
	problems  []string
}

// maxProblems bounds how many failure descriptions a run keeps.
const maxProblems = 20

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < maxProblems {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// absorb adds another checker's counts: the transport probe's fleets are
// checked against their own workload and reported with the run's.
func (c *checker) absorb(o *checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.problems = append(c.problems, o.problems...)
}

// round checks the report of the round numbered want (0 = bootstrap).
func (c *checker) round(want int, rep fleet.RoundReport) {
	c.attempted += 2 * c.w.Nodes
	if rep.Round != want {
		c.fail("round %d: report says round %d", want, rep.Round)
	}
	if len(rep.Nodes) != c.w.Nodes {
		c.fail("round %d: %d node reports, want %d", want, len(rep.Nodes), c.w.Nodes)
	}
	version := uint32(want + 1)
	if rep.CloudVersion != version {
		c.fail("round %d: cloud version %d, want %d", want, rep.CloudVersion, version)
	}
	admitted := 0
	for _, nr := range rep.Nodes {
		admitted += nr.Admitted
		if nr.TimedOut || nr.Disconnected || nr.UploadFailed {
			c.fail("round %d node %d: upload failed (timed out %v, disconnected %v, lost %v)",
				want, nr.Node, nr.TimedOut, nr.Disconnected, nr.UploadFailed)
		}
		if nr.DeployFailed || nr.StaleModel {
			c.fail("round %d node %d: deploy failed (failed %v, stale %v)", want, nr.Node, nr.DeployFailed, nr.StaleModel)
		}
		if nr.ModelVersion != version {
			c.fail("round %d node %d: model version %d, want %d", want, nr.Node, nr.ModelVersion, version)
		}
		if nr.UploadedBytes != int64(nr.Uploaded)*dataset.ImageBytes {
			c.fail("round %d node %d: %d uploaded bytes for %d images", want, nr.Node, nr.UploadedBytes, nr.Uploaded)
		}
	}
	if admitted != rep.Admitted {
		c.fail("round %d: nodes admitted %d, report says %d", want, admitted, rep.Admitted)
	}
	if c.w.Cap > 0 && rep.Admitted > c.w.Cap {
		c.fail("round %d: admitted %d past the cap %d", want, rep.Admitted, c.w.Cap)
	}
	if rep.Trained != rep.Admitted {
		c.fail("round %d: trained %d, admitted %d", want, rep.Trained, rep.Admitted)
	}
	if math.IsNaN(rep.MeanAccuracy) || math.IsInf(rep.MeanAccuracy, 0) {
		c.fail("round %d: mean accuracy %v", want, rep.MeanAccuracy)
	}
}

// checkpoint checks one Fleet.Checkpoint outcome.
func (c *checker) checkpoint(size int64, err error) {
	c.attempted++
	switch {
	case err != nil:
		c.fail("checkpoint: %v", err)
	case size == 0:
		c.fail("checkpoint: empty")
	}
}

// accuracy checks the run's mean accuracy against the workload's floor.
func (c *checker) accuracy(mean float64) {
	if !(mean >= c.w.AccuracyFloor) {
		c.fail("accuracy %.4f below the floor %.2f", mean, c.w.AccuracyFloor)
	}
}

// failedFrac is failed_ops_frac.
func (c *checker) failedFrac() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}
