// Wildlife monitoring: the paper's motivating scenario end to end.
//
// A camera-trap node in a wildlife sanctuary (the Snapshot-Serengeti
// setting) runs the full In-situ AI closed loop across four incremental
// update stages: animals appear too close to the camera, in random poses
// and under poor illumination, the node's diagnosis task uploads only the
// unrecognized captures, and the Cloud incrementally updates both models
// with two-level weight sharing.
//
//	go run ./examples/wildlife
package main

import (
	"fmt"

	"insitu/internal/core"
	"insitu/internal/fleet"
	"insitu/internal/netsim"
)

func main() {
	// One camera trap: a one-node fleet.
	cfg := fleet.DefaultConfig(core.SystemInSituAI, 1, 2026)
	cfg.Classes = 5         // species in this sanctuary
	cfg.InSituFrac = 0.6    // most captures are messy
	cfg.Severity = 0.7      // strong condition drift
	cfg.Link = netsim.LTE() // remote site: cellular uplink
	sanctuary := fleet.New(cfg)
	defer sanctuary.Close()

	fmt.Println("bootstrapping the sanctuary node (all 128 initial captures move to the Cloud)...")
	boot := sanctuary.Bootstrap(128)
	fmt.Printf("  initial model accuracy on live captures: %.2f\n\n", boot.Nodes[0].NodeAccuracy)

	fmt.Println("stage  captured  uploaded  frac   accuracy  uplink(J)  cloud(s)")
	var moved int
	var movedBytes int64
	var movedJ float64
	row := func(r fleet.RoundReport) {
		n := r.Nodes[0]
		fmt.Printf("%5d  %8d  %8d  %.2f   %.3f     %8.3f  %7.2f\n",
			r.Round, n.Captured, n.Uploaded, n.UploadFrac,
			n.NodeAccuracy, n.UplinkJoules, r.CloudCost.Seconds)
		moved += n.Uploaded
		movedBytes += n.UploadedBytes
		movedJ += n.UplinkJoules
	}
	row(boot)
	for _, n := range []int{96, 128, 192, 256} {
		row(sanctuary.RunRound(n))
	}

	fmt.Printf("\nuplink lifetime: %d of the captures moved (%.2f MB, %.3f J over %s)\n",
		moved, float64(movedBytes)/1e6, movedJ, cfg.Link.Name)
	fmt.Println("the node kept the rest local: that is the In-situ AI data-movement saving.")
}
