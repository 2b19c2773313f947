package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"insitu/internal/tensor"
)

// convGradsCase builds one Conv2D on tinyAlexConvs[1] and a fixed-seed
// batch of 9, and returns a function that runs a training forward and
// backward on it and copies out dW, dB and dx.
func convGradsCase() func() (dW, dB, dx []float32) {
	g := tinyAlexConvs[1]
	r := tensor.NewRNG(43)
	l := NewConv2D("conv", g, r)
	const batch = 9
	x := tensor.New(batch, g.InChannels, g.InHeight, g.InWidth)
	x.FillNormal(r, 0, 1)
	dy := tensor.New(batch, g.OutChannels, g.OutHeight(), g.OutWidth())
	dy.FillNormal(r, 0, 1)
	return func() (dW, dB, dx []float32) {
		l.W.ZeroGrad()
		l.B.ZeroGrad()
		l.Forward(x, true)
		dx = append([]float32(nil), l.Backward(dy).Data...)
		return append([]float32(nil), l.W.Grad.Data...), append([]float32(nil), l.B.Grad.Data...), dx
	}
}

// Conv2D.Backward issues its own parallel sections and GEMMs. Its
// gradients must be the same whether the shared worker pool was free or
// busy with another section (as when fleet shards train concurrently),
// or they would depend on scheduling.
func TestConvBackwardSameWhenPoolBusy(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one P: the shared pool has no workers, so every section is one chunk")
	}
	grads := convGradsCase()
	wantW, wantB, wantX := grads()
	var gotW, gotB, gotX []float32
	// Hold the pool with a two-chunk section and run the backward from
	// inside its first chunk, so every parallel section it issues misses
	// the pool.
	tensor.ParallelChunks(2, func(chunk, _, _ int) {
		if chunk == 0 {
			gotW, gotB, gotX = grads()
		}
	})
	for _, c := range []struct {
		name      string
		got, want []float32
	}{{"dW", gotW, wantW}, {"dB", gotB, wantB}, {"dx", gotX, wantX}} {
		for i := range c.want {
			if math.Float32bits(c.got[i]) != math.Float32bits(c.want[i]) {
				t.Fatalf("%s[%d] = %v with the pool busy, %v with it free", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

// convDigestChild makes the test binary print the gradient digest of
// convGradsCase instead of running TestConvBackwardSameAtAnyGOMAXPROCS.
const convDigestChild = "NN_CONV_DIGEST_CHILD"

// The shared worker pool is sized once per process from GOMAXPROCS, so
// a conv backward whose floats followed the pool would train a
// different model on a different core count. Each GOMAXPROCS value runs
// in a child process of this test binary that prints a digest of dW, dB
// and dx; all digests must be equal. GOMAXPROCS is not capped by the
// CPU count, so this runs multi-worker pools on a one-CPU host too.
func TestConvBackwardSameAtAnyGOMAXPROCS(t *testing.T) {
	if os.Getenv(convDigestChild) != "" {
		dW, dB, dx := convGradsCase()()
		var buf []byte
		for _, s := range [][]float32{dW, dB, dx} {
			for _, v := range s {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
			}
		}
		fmt.Printf("conv-grad-digest %x\n", sha256.Sum256(buf))
		return
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for _, procs := range []int{1, 2, 4} {
		cmd := exec.Command(exe, "-test.run=^TestConvBackwardSameAtAnyGOMAXPROCS$", "-test.count=1")
		cmd.Env = append(os.Environ(), convDigestChild+"=1", fmt.Sprintf("GOMAXPROCS=%d", procs))
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d child: %v\n%s", procs, err, out)
		}
		var digest string
		for _, line := range strings.Split(string(out), "\n") {
			if d, ok := strings.CutPrefix(line, "conv-grad-digest "); ok {
				digest = d
			}
		}
		if digest == "" {
			t.Fatalf("GOMAXPROCS=%d child printed no digest:\n%s", procs, out)
		}
		t.Logf("GOMAXPROCS=%d: %s", procs, digest)
		if first == "" {
			first = digest
		} else if digest != first {
			t.Errorf("GOMAXPROCS=%d digest %s, GOMAXPROCS=1 digest %s", procs, digest, first)
		}
	}
}
