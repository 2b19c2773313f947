// Command insitu-train runs the Cloud side of the bootstrap offline: the
// loop's own cloud.Server pre-trains the unsupervised jigsaw network on
// synthetic raw IoT data, transfer-learns and fine-tunes the inference
// network, calibrates the diagnosis threshold, and the packed bundle is
// written to disk:
//
//	insitu-train -out model.isdp -classes 5 -images 600
//
// Training steps per phase scale with -images exactly as in the loop
// (cloud.StepsFor: 150 steps at 600 images). The bundle can be
// inspected or re-verified with -check:
//
//	insitu-train -check model.isdp -classes 5
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"insitu/internal/cloud"
	"insitu/internal/dataset"
	"insitu/internal/deploy"
	"insitu/internal/models"
	"insitu/internal/nn"
	"insitu/internal/obs"
	"insitu/internal/train"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("insitu-train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "model.isdp", "output bundle path")
	check := fs.String("check", "", "verify an existing bundle instead of training")
	classes := fs.Int("classes", 5, "object classes")
	perms := fs.Int("perms", 8, "jigsaw permutation classes")
	images := fs.Int("images", 600, "raw training images (training steps per phase follow cloud.StepsFor)")
	seed := fs.Uint64("seed", 42, "seed")
	var obsFlags obs.Flags
	obsFlags.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "insitu-train:", msg)
		return 2
	}
	switch {
	case *images < 1:
		return usage(fmt.Sprintf("-images must be at least 1, got %d", *images))
	case *classes < 2:
		return usage(fmt.Sprintf("-classes must be at least 2, got %d", *classes))
	case *perms < 2:
		return usage(fmt.Sprintf("-perms must be at least 2, got %d", *perms))
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "insitu-train:", err)
		return 1
	}

	if *check != "" {
		bundle, err := readBundle(*check)
		if err != nil {
			return fail(err)
		}
		if _, err := applyFresh(bundle, *classes, *perms, *seed); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s OK: version %d, threshold %.3f, %d bytes, weights load cleanly\n",
			*check, bundle.Version, bundle.Threshold, bundle.Size())
		return 0
	}

	session, err := obs.Start(obsFlags)
	if err != nil {
		return fail(err)
	}
	world := dataset.NewGenerator(*classes, *seed)
	pool := world.MixedSet(*images, 0.5, 0.6)
	// SharedConvs and Probes are the loop's own (fleet.DefaultConfig).
	server := cloud.NewServer(cloud.Config{
		Classes:       *classes,
		PermClasses:   *perms,
		SharedConvs:   3,
		Probes:        3,
		Seed:          *seed,
		FullScaleSpec: models.AlexNet(),
		Cost:          cloud.NewCostModel(),
	})
	fmt.Fprintf(stderr, "bootstrapping on %d images (%d steps per phase)...\n",
		*images, cloud.StepsFor(*images))
	server.Bootstrap(pool)
	bundle, err := server.Pack()
	if err != nil {
		return fail(err)
	}

	// Held-out accuracy of what was shipped: the bundle applied to fresh
	// nets, the same path a node (and -check) takes.
	inference, err := applyFresh(bundle, *classes, *perms, *seed)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "inference accuracy: %.3f\n", train.Evaluate(inference, world.MixedSet(200, 0.5, 0.6)))

	f, err := os.Create(*out)
	if err != nil {
		return fail(err)
	}
	if err := bundle.Encode(f); err != nil {
		f.Close()
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "wrote %s: version %d, threshold %.3f, %d bytes\n",
		*out, bundle.Version, bundle.Threshold, bundle.Size())
	if err := session.Close(stderr); err != nil {
		return fail(err)
	}
	return 0
}

// readBundle decodes a bundle file.
func readBundle(path string) (*deploy.Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	bundle, err := deploy.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("bundle invalid: %w", err)
	}
	return bundle, nil
}

// applyFresh loads bundle onto freshly built networks of the declared
// architecture and returns the inference network.
func applyFresh(bundle *deploy.Bundle, classes, perms int, seed uint64) (*nn.Network, error) {
	inference, jig := cloud.NewModels(classes, perms, seed)
	if err := bundle.ApplyAtomic(0, inference, jig, nil); err != nil {
		return nil, fmt.Errorf("bundle does not apply to the declared architecture: %w", err)
	}
	return inference, nil
}
