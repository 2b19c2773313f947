package tensor

import (
	"fmt"
	"math"
	"testing"
)

// convGeoms are the convolution geometries the models build (see
// internal/models, which imports this package): TinyAlex's five convs,
// the jigsaw trunk's three on one 8×8 patch, TinyVGG's six and
// TinyGoogLe's five (1×1/pad-0 and 5×5/pad-2 among them), plus one
// stride-2 conv.
var convGeoms = map[string]Conv2DGeom{
	"alex.conv1":       {InChannels: 3, InHeight: 24, InWidth: 24, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 12},
	"alex.conv2":       {InChannels: 12, InHeight: 12, InWidth: 12, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 16},
	"alex.conv3":       {InChannels: 16, InHeight: 6, InWidth: 6, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 24},
	"alex.conv4":       {InChannels: 24, InHeight: 6, InWidth: 6, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 24},
	"alex.conv5":       {InChannels: 24, InHeight: 6, InWidth: 6, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 16},
	"jigsaw.conv1":     {InChannels: 3, InHeight: 8, InWidth: 8, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 12},
	"jigsaw.conv2":     {InChannels: 12, InHeight: 4, InWidth: 4, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 16},
	"jigsaw.conv3":     {InChannels: 16, InHeight: 2, InWidth: 2, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 24},
	"vgg.conv1_1":      {InChannels: 3, InHeight: 24, InWidth: 24, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 16},
	"vgg.conv1_2":      {InChannels: 16, InHeight: 24, InWidth: 24, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 16},
	"vgg.conv2_1":      {InChannels: 16, InHeight: 12, InWidth: 12, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 24},
	"vgg.conv2_2":      {InChannels: 24, InHeight: 12, InWidth: 12, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 24},
	"vgg.conv3_1":      {InChannels: 24, InHeight: 6, InWidth: 6, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 32},
	"vgg.conv3_2":      {InChannels: 32, InHeight: 6, InWidth: 6, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 32},
	"google.conv1":     {InChannels: 3, InHeight: 24, InWidth: 24, KernelSize: 5, Stride: 1, Padding: 2, OutChannels: 12},
	"google.reduce2":   {InChannels: 12, InHeight: 12, InWidth: 12, KernelSize: 1, Stride: 1, Padding: 0, OutChannels: 8},
	"google.conv2":     {InChannels: 8, InHeight: 12, InWidth: 12, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 20},
	"google.inc3r":     {InChannels: 20, InHeight: 6, InWidth: 6, KernelSize: 1, Stride: 1, Padding: 0, OutChannels: 16},
	"google.inc3":      {InChannels: 16, InHeight: 6, InWidth: 6, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 28},
	"stride2.7x9.pad1": {InChannels: 5, InHeight: 7, InWidth: 9, KernelSize: 3, Stride: 2, Padding: 1, OutChannels: 10},
}

// convTile is t random images of g padded into one operand, plus the
// written-out column matrix Dm of the tile ([N·K², t·R·C], image i in
// columns [i·R·C, (i+1)·R·C)) built from Im2Col.
func convTile(r *RNG, g Conv2DGeom, t int) (ConvOperand, *Tensor) {
	rows, rc, ps := g.ColRows(), g.ColCols(), g.PadSize()
	pad := make([]float32, t*ps)
	dm := New(rows, t*rc)
	one := New(rows, rc)
	for i := 0; i < t; i++ {
		in := New(g.InChannels, g.InHeight, g.InWidth)
		in.FillNormal(r, 0, 1)
		PadImage(pad[i*ps:(i+1)*ps], in.Data, g)
		Im2Col(in, g, one)
		for p := 0; p < rows; p++ {
			copy(dm.Data[p*t*rc+i*rc:], one.Data[p*rc:(p+1)*rc])
		}
	}
	row, col := g.Offsets(t)
	return ConvOperand{Pad: pad, RowOff: row, ColOff: col}, dm
}

func sameBits(a, b *Tensor) bool {
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// The GEMMs through the implicit operand equal Im2Col + MatMulInto (the
// forward, C = Fm·Dm) and Im2Col + matMulTransBInto (the accumulated
// weight gradient, C += dy·Dmᵀ) bit for bit, on every model geometry,
// for tiles of 1, 3 and a full 512-column panel of images, under every
// micro-kernel. Each case runs at the geometry's M and at M = 2, which
// is always on the small path; the test demands that both paths and
// both orientations were exercised.
func TestConvOperandMatchesIm2Col(t *testing.T) {
	defer restoreDefaultKernel(t)
	paths := map[string]int{}
	for _, kernel := range KernelNames() {
		if err := selectKernel(kernel); err != nil {
			t.Fatal(err)
		}
		r := NewRNG(53)
		for name, g := range convGeoms {
			rows, rc := g.ColRows(), g.ColCols()
			for _, tile := range []int{1, 3, max(1, 512/rc)} {
				op, dm := convTile(r, g, tile)
				n := tile * rc
				for _, m := range []int{g.OutChannels, 2} {
					where := fmt.Sprintf("%s/%s tile %d M %d", kernel, name, tile, m)
					fm := New(m, rows)
					fm.FillNormal(r, 0, 1)
					got, want := New(m, n), New(m, n)
					got.Fill(7) // a forward overwrites C
					MatMulConvInto(got, fm, op)
					MatMulInto(want, fm, dm)
					if !sameBits(got, want) {
						t.Fatalf("%s: forward differs from Im2Col + MatMulInto", where)
					}
					paths[fmt.Sprintf("forward small=%v", SmallGemm(m, n, rows))]++

					dy := New(m, n)
					dy.FillNormal(r, 0, 1)
					got, want = New(m, rows), New(m, rows)
					got.FillNormal(r, 0, 1)
					copy(want.Data, got.Data)
					MatMulConvTransBInto(got, dy, op, true)
					matMulTransBInto(want, dy, dm, true)
					if !sameBits(got, want) {
						t.Fatalf("%s: weight gradient differs from Im2Col + matMulTransBInto", where)
					}
					paths[fmt.Sprintf("gradient small=%v", SmallGemm(m, rows, n))]++
				}
			}
		}
	}
	for _, p := range []string{"forward small=true", "forward small=false", "gradient small=true", "gradient small=false"} {
		if paths[p] == 0 {
			t.Errorf("no case ran the %s GEMM (%v)", p, paths)
		}
	}
}

// Parallel pack units gather B's panels from one operand concurrently:
// through a private four-worker pool, a full-panel forward and weight
// gradient give the bits of the inline run.
func TestConvOperandParallelPacks(t *testing.T) {
	p := newWorkerPool(4)
	defer p.close()
	r := NewRNG(59)
	g := convGeoms["alex.conv4"]
	rows, rc := g.ColRows(), g.ColCols()
	op, _ := convTile(r, g, 512/rc)
	n := len(op.ColOff)
	fm := New(g.OutChannels, rows)
	fm.FillNormal(r, 0, 1)
	dy := New(g.OutChannels, n)
	dy.FillNormal(r, 0, 1)
	for _, transB := range []bool{false, true} {
		a, k, cn := fm, rows, n
		if transB {
			a, k, cn = dy, n, rows
		}
		want := New(g.OutChannels, cn)
		gemmConv(want.Data, a.Data, op, transB, g.OutChannels, cn, k, false)
		got := New(g.OutChannels, cn)
		job := newGemmJob(got.Data, a.Data, nil, false, transB, g.OutChannels, cn, k, false)
		job.bPad, job.bkOff, job.bnOff = op.Pad, op.RowOff, op.ColOff
		if transB {
			job.bkOff, job.bnOff = op.ColOff, op.RowOff
		}
		if job.tilesM+job.tilesN < 2 {
			t.Fatalf("transB=%v: one pack unit; the test needs several", transB)
		}
		gemmOn(p, &job)
		if !sameBits(got, want) {
			t.Fatalf("transB=%v: pool-packed product differs from the inline one", transB)
		}
	}
}

// An operand whose tables address past its padded images is refused
// before any packing starts.
func TestConvOperandRejectsShortPad(t *testing.T) {
	g := convGeoms["alex.conv3"]
	row, col := g.Offsets(2)
	op := ConvOperand{Pad: make([]float32, 2*g.PadSize()-1), RowOff: row, ColOff: col}
	defer func() {
		if recover() == nil {
			t.Fatal("MatMulConvInto accepted a short operand")
		}
	}()
	MatMulConvInto(New(g.OutChannels, len(col)), New(g.OutChannels, g.ColRows()), op)
}
