package tensor

import "testing"

func TestWorkspaceGetShapesAndReuse(t *testing.T) {
	var ws Workspace
	a := ws.Get(4, 5)
	if a.Dim(0) != 4 || a.Dim(1) != 5 || a.Size() != 20 {
		t.Fatalf("Get(4,5) returned shape %v size %d", a.Shape(), a.Size())
	}
	a.Fill(3)
	ws.Put(a)
	b := ws.Get(4, 5)
	// Under the race detector sync.Pool drops Puts at random to widen
	// interleavings, so buffer identity is only guaranteed without it.
	if b != a && !raceEnabled {
		t.Errorf("same-shape Get after Put returned a different tensor")
	}
	ws.Put(b)
	// Reshaping reuse: same element count, different shape.
	c := ws.Get(2, 10)
	if c.Dim(0) != 2 || c.Dim(1) != 10 || c.Size() != 20 {
		t.Fatalf("Get(2,10) returned shape %v size %d", c.Shape(), c.Size())
	}
	if c.At(1, 9) != 3 && !raceEnabled {
		t.Errorf("pooled tensor contents should be unspecified (reused), got fresh storage")
	}
	ws.Put(c)
	// Growth: bigger request must reallocate storage.
	d := ws.Get(6, 6)
	if d.Size() != 36 {
		t.Fatalf("Get(6,6) size = %d", d.Size())
	}
	d.Data[35] = 1
	ws.Put(d)
}

func TestWorkspaceGetSlice(t *testing.T) {
	var ws Workspace
	p := ws.GetSlice(10)
	if len(*p) != 10 {
		t.Fatalf("GetSlice(10) len = %d", len(*p))
	}
	(*p)[9] = 7
	ws.PutSlice(p)
	q := ws.GetSlice(5)
	if len(*q) != 5 {
		t.Fatalf("GetSlice(5) len = %d", len(*q))
	}
	ws.PutSlice(q)
	r := ws.GetSlice(100)
	if len(*r) != 100 {
		t.Fatalf("GetSlice(100) len = %d", len(*r))
	}
	ws.PutSlice(r)
}

func TestWorkspaceZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on otherwise allocation-free paths")
	}
	var ws Workspace
	ws.Put(ws.Get(8, 16))
	ws.PutSlice(ws.GetSlice(64))
	if allocs := testing.AllocsPerRun(50, func() {
		tt := ws.Get(8, 16)
		ws.Put(tt)
	}); allocs != 0 {
		t.Errorf("same-shape Get/Put allocates %.1f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		p := ws.GetSlice(64)
		ws.PutSlice(p)
	}); allocs != 0 {
		t.Errorf("same-size GetSlice/PutSlice allocates %.1f objects, want 0", allocs)
	}
}
