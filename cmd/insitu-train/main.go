// Command insitu-train runs the Cloud side of the bootstrap offline: it
// pre-trains the unsupervised jigsaw network on synthetic raw IoT data,
// transfer-learns the inference network, calibrates a diagnosis
// threshold and writes a deployable model bundle:
//
//	insitu-train -out model.isdp -classes 5 -images 256 -steps 150
//
// The bundle can be inspected or re-verified with -check:
//
//	insitu-train -check model.isdp -classes 5
//
// Durability: -state-dir DIR snapshots the supervised fine-tune every
// -ckpt-every steps (plus once right after transfer learning); -resume
// picks up at the exact step the latest snapshot holds and writes the
// same bundle an uninterrupted run would have.
package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"insitu/internal/ckpt"
	"insitu/internal/dataset"
	"insitu/internal/deploy"
	"insitu/internal/diagnosis"
	"insitu/internal/jigsaw"
	"insitu/internal/models"
	"insitu/internal/nn"
	"insitu/internal/obs"
	"insitu/internal/tensor"
	"insitu/internal/train"
	"insitu/internal/transfer"
)

// trainMagic frames one insitu-train snapshot: the world and jigsaw
// RNG positions, the jigsaw network, and the fine-tune loop state.
const trainMagic = "ISTR0001"

func main() {
	out := flag.String("out", "model.isdp", "output bundle path")
	check := flag.String("check", "", "verify an existing bundle instead of training")
	classes := flag.Int("classes", 5, "object classes")
	perms := flag.Int("perms", 8, "jigsaw permutation classes")
	images := flag.Int("images", 256, "raw training images")
	steps := flag.Int("steps", 150, "training steps per phase")
	seed := flag.Uint64("seed", 42, "seed")
	var obsFlags obs.Flags
	obsFlags.AddFlags(flag.CommandLine)
	flag.Parse()

	if *check != "" {
		verify(*check, *classes, *perms, *seed)
		return
	}

	session, err := obs.Start(obsFlags)
	if err != nil {
		fatal(err)
	}
	store, err := obsFlags.OpenStore()
	if err != nil {
		fatal(err)
	}

	world := dataset.NewGenerator(*classes, *seed)
	permSet := jigsaw.NewPermSet(*perms, *seed+1)
	jigNet := jigsaw.NewNet(*perms, *seed+2)
	trainer := jigsaw.NewTrainer(jigNet, permSet, 0.01, *seed+3)

	// The pool is regenerated on every start (resume included): it is a
	// pure function of the world RNG, whose position the snapshot carries.
	pool := world.MixedSet(*images, 0.5, 0.6)
	imgs := make([]*tensor.Tensor, len(pool))
	for i := range pool {
		imgs[i] = pool[i].Image
	}

	inference := models.TinyAlex(*classes, *seed+4)
	loop := train.NewLoop(inference, pool, train.DefaultConfig(*steps), 0)

	// Resume skips the jigsaw and transfer phases entirely: the snapshot
	// holds the post-transfer state at fine-tune step granularity.
	resumed := false
	if obsFlags.Resume {
		payload, _, rerr := store.LoadLatest()
		switch {
		case rerr == nil:
			if err := loadTrainSnapshot(payload, world, trainer, jigNet, loop); err != nil {
				fatal(err)
			}
			resumed = true
			fmt.Fprintf(os.Stderr, "resumed from %s at fine-tune step %d/%d\n",
				store.Dir(), loop.StepIndex(), *steps)
		case errors.Is(rerr, ckpt.ErrNoSnapshot):
			fmt.Fprintln(os.Stderr, "no snapshot to resume from; starting fresh")
		default:
			fatal(rerr)
		}
	}

	if !resumed {
		fmt.Fprintf(os.Stderr, "pre-training jigsaw net on %d unlabeled images (%d steps)...\n", *images, *steps)
		for step := 0; step < *steps; step++ {
			i0 := (step * 16) % len(imgs)
			end := i0 + 16
			if end > len(imgs) {
				end = len(imgs)
			}
			trainer.Step(imgs[i0:end])
		}
		evalN := len(imgs)
		if evalN > 64 {
			evalN = 64
		}
		fmt.Fprintf(os.Stderr, "jigsaw task accuracy: %.3f\n", trainer.Evaluate(imgs[:evalN]))

		fmt.Fprintf(os.Stderr, "transfer learning inference net (%d labels)...\n", len(pool))
		if _, err := transfer.FromUnsupervised(inference, jigNet, 3); err != nil {
			fatal(err)
		}
	}

	snapshot := func() {
		if store == nil {
			return
		}
		if err := saveTrainSnapshot(store, world, trainer, jigNet, loop); err != nil {
			fatal(err)
		}
	}
	if !resumed {
		// Seal the completed jigsaw+transfer phases before fine-tuning.
		snapshot()
	}
	every := obsFlags.CkptEvery
	if every < 1 {
		every = 1
	}
	for loop.Step() {
		if store != nil && loop.StepIndex()%every == 0 {
			snapshot()
		}
	}
	if loop.StepIndex()%every != 0 {
		snapshot()
	}
	acc := train.Evaluate(inference, world.MixedSet(200, 0.5, 0.6))
	fmt.Fprintf(os.Stderr, "inference accuracy: %.3f\n", acc)

	diag := diagnosis.NewJigsawDiagnoser(jigNet, permSet, 3, *seed+5)
	diagnosis.Calibrate(diag, pool, 1.2*(1-acc)+0.05)

	bundle, err := deploy.Pack(1, inference, jigNet, diag.Threshold())
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := bundle.Encode(f); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: version %d, threshold %.3f, %d bytes\n",
		*out, bundle.Version, bundle.Threshold, bundle.Size())
	if err := session.Close(os.Stderr); err != nil {
		fatal(err)
	}
}

func verify(path string, classes, perms int, seed uint64) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	bundle, err := deploy.Decode(f)
	if err != nil {
		fatal(fmt.Errorf("bundle invalid: %w", err))
	}
	inference := models.TinyAlex(classes, seed)
	jigNet := jigsaw.NewNet(perms, seed)
	if err := bundle.ApplyAtomic(0, inference, jigNet, nil); err != nil {
		fatal(fmt.Errorf("bundle does not apply to the declared architecture: %w", err))
	}
	fmt.Printf("%s OK: version %d, threshold %.3f, %d bytes, weights load cleanly\n",
		path, bundle.Version, bundle.Threshold, bundle.Size())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "insitu-train:", err)
	os.Exit(1)
}

// saveTrainSnapshot writes one crash-safe snapshot of the pipeline: the
// world and jigsaw RNG positions, the jigsaw network (weights + layer
// state) and the fine-tune loop (step, weights, optimizer momentum).
func saveTrainSnapshot(store *ckpt.Store, world *dataset.Generator, trainer *jigsaw.Trainer, jigNet *nn.Network, loop *train.Loop) error {
	var buf bytes.Buffer
	buf.WriteString(trainMagic)
	for _, v := range []uint64{world.RNGState(), trainer.RNGState()} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	sections := []func(io.Writer) error{jigNet.SaveWeights, jigNet.SaveLayerState, loop.Save}
	for _, save := range sections {
		var sec bytes.Buffer
		if err := save(&sec); err != nil {
			return err
		}
		if err := binary.Write(&buf, binary.LittleEndian, uint64(sec.Len())); err != nil {
			return err
		}
		buf.Write(sec.Bytes())
	}
	_, err := store.Save(buf.Bytes())
	return err
}

// loadTrainSnapshot restores a snapshot into freshly constructed (and
// therefore structurally identical) pipeline objects.
func loadTrainSnapshot(payload []byte, world *dataset.Generator, trainer *jigsaw.Trainer, jigNet *nn.Network, loop *train.Loop) error {
	r := bytes.NewReader(payload)
	magic := make([]byte, len(trainMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("reading snapshot magic: %w", err)
	}
	if string(magic) != trainMagic {
		return fmt.Errorf("bad snapshot magic %q", magic)
	}
	var rngs [2]uint64
	for i := range rngs {
		if err := binary.Read(r, binary.LittleEndian, &rngs[i]); err != nil {
			return err
		}
	}
	world.SetRNGState(rngs[0])
	trainer.SetRNGState(rngs[1])
	sections := []func(io.Reader) error{jigNet.LoadWeights, jigNet.LoadLayerState, loop.Load}
	for _, load := range sections {
		var n uint64
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return err
		}
		if n > uint64(r.Len()) {
			return fmt.Errorf("snapshot section length %d exceeds payload", n)
		}
		sec := make([]byte, n)
		if _, err := io.ReadFull(r, sec); err != nil {
			return err
		}
		if err := load(bytes.NewReader(sec)); err != nil {
			return err
		}
	}
	return nil
}
