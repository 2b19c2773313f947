// Package jigsaw implements the paper's unsupervised pre-training task
// (Fig. 3): an image is cut into a 3×3 grid of tiles, the tiles are
// shuffled by a permutation drawn from a fixed set, and a network must
// predict which permutation was applied. Solving this "spatial context
// prediction" task requires recognizing objects and their parts, so the
// learned CONV features transfer to the recognition task — and the same
// network doubles as the node-side diagnosis task.
package jigsaw

import (
	"fmt"

	"insitu/internal/tensor"
)

// GridTiles is the number of tiles in the 3×3 jigsaw grid.
const GridTiles = 9

// Permutation is one ordering of the 9 tiles: perm[i] is the original
// tile index placed at grid slot i, matching the paper's notation
// ([4,7,0,3,8,5,1,6,2] in Fig. 3).
type Permutation [GridTiles]int

// Hamming returns the number of positions where p and q differ.
func (p Permutation) Hamming(q Permutation) int {
	d := 0
	for i := range p {
		if p[i] != q[i] {
			d++
		}
	}
	return d
}

// PermSet is the predefined permutation set the task classifies over.
// Index in the set is the class label.
type PermSet struct {
	Perms []Permutation
}

// NewPermSet generates a set of n permutations by greedy max-min Hamming
// selection from random candidates (the standard construction from
// Noroozi & Favaro's jigsaw paper): each new permutation maximizes its
// minimum Hamming distance to those already chosen, keeping classes
// maximally distinguishable.
func NewPermSet(n int, seed uint64) *PermSet {
	if n < 2 {
		panic("jigsaw: permutation set needs at least 2 entries")
	}
	r := tensor.NewRNG(seed)
	randPerm := func() Permutation {
		var p Permutation
		copy(p[:], r.Perm(GridTiles))
		return p
	}
	set := &PermSet{Perms: make([]Permutation, 0, n)}
	set.Perms = append(set.Perms, randPerm())
	const candidates = 60
	for len(set.Perms) < n {
		var best Permutation
		bestScore := -1
		for c := 0; c < candidates; c++ {
			cand := randPerm()
			minD := GridTiles + 1
			for _, chosen := range set.Perms {
				if d := cand.Hamming(chosen); d < minD {
					minD = d
				}
			}
			if minD > bestScore {
				bestScore = minD
				best = cand
			}
		}
		set.Perms = append(set.Perms, best)
	}
	return set
}

// Len returns the number of permutations (the number of task classes).
func (s *PermSet) Len() int { return len(s.Perms) }

// At returns permutation i.
func (s *PermSet) At(i int) Permutation {
	if i < 0 || i >= len(s.Perms) {
		panic(fmt.Sprintf("jigsaw: permutation index %d out of range", i))
	}
	return s.Perms[i]
}
