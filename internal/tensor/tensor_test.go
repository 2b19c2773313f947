package tensor

import (
	"testing"
	"testing/quick"
)

func TestNewShapeAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if got := x.Size(); got != 24 {
		t.Fatalf("Size = %d, want 24", got)
	}
	if got := x.Rank(); got != 3 {
		t.Fatalf("Rank = %d, want 3", got)
	}
	s := x.Shape()
	if s[0] != 2 || s[1] != 3 || s[2] != 4 {
		t.Fatalf("Shape = %v, want [2 3 4]", s)
	}
	// Shape must be a copy.
	s[0] = 99
	if x.Dim(0) != 2 {
		t.Fatal("Shape() leaked internal slice")
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {2, -1}, {3, 0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", shape)
				}
			}()
			New(shape...)
		}()
	}
}

// set stores v at the given multi-index.
func (t *Tensor) set(v float32, idx ...int) { t.Data[t.offset(idx)] = v }

func TestAtReadsRowMajor(t *testing.T) {
	x := New(3, 4)
	// Row-major layout: offset of (2,1) in a 3x4 tensor is 2*4+1 = 9.
	x.Data[9] = 7.5
	if got := x.At(2, 1); got != 7.5 {
		t.Fatalf("At(2,1) = %v, want 7.5 (Data[9])", got)
	}
}

func TestAtPanicsOutOfBounds(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of bounds did not panic")
		}
	}()
	_ = x.At(2, 0)
}

func TestFromSliceValidatesLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Data[0] = 42
	if x.Data[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.set(99, 0, 1)
	if x.At(0, 1) != 99 {
		t.Fatal("Reshape did not share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reshape to wrong size did not panic")
		}
	}()
	x.Reshape(4, 2)
}

func TestFillScaleAddScaled(t *testing.T) {
	x := New(2, 2)
	x.Fill(2)
	x.Scale(3)
	y := New(2, 2)
	y.Fill(1)
	x.AddScaled(y, 4)
	for i, v := range x.Data {
		if v != 10 {
			t.Fatalf("Data[%d] = %v, want 10", i, v)
		}
	}
}

func TestSameShape(t *testing.T) {
	a, b, c := New(2, 3), New(2, 3), New(3, 2)
	if !a.SameShape(b) {
		t.Fatal("identical shapes reported unequal")
	}
	if a.SameShape(c) {
		t.Fatal("different shapes reported equal")
	}
}

// Property: Reshape preserves the flat content for any compatible shape.
func TestQuickReshapePreservesData(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		x := FromSlice(raw, len(raw))
		y := x.Reshape(1, len(raw))
		for i := range raw {
			if y.At(0, i) != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone then mutate never affects the source (deep-copy law).
func TestQuickCloneIndependence(t *testing.T) {
	f := func(raw []float32, v float32) bool {
		if len(raw) == 0 {
			return true
		}
		x := FromSlice(append([]float32(nil), raw...), len(raw))
		y := x.Clone()
		for i := range y.Data {
			y.Data[i] = v
		}
		for i := range x.Data {
			if x.Data[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
