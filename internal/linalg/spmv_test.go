package linalg

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// randomMatrix builds a random sparse matrix with about one dangling (empty)
// row in five; duplicate coordinates are summed.
func randomMatrix(rng *sim.RNG, n int) *Rows[float64] {
	a := NewRows[float64](n)
	for i := 0; i < n; i++ {
		if rng.Bool(0.2) {
			continue // dangling row
		}
		deg := 1 + rng.Intn(4)
		for d := 0; d < deg; d++ {
			*a.Cell(i, rng.Intn(n)) += rng.Float64()
		}
	}
	return a
}

// randomVectors returns x and a dangle distribution of length n.
func randomVectors(rng *sim.RNG, n int) (x, dangle []float64) {
	x, dangle = make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
		dangle[i] = rng.Float64()
	}
	return x, dangle
}

func TestMulTransposeMatchesDense(t *testing.T) {
	rng := sim.NewRNG(7)
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(30)
		a := randomMatrix(rng, n)
		x, dangle := randomVectors(rng, n)
		y := make([]float64, n)
		var ws Workspace
		MulTranspose(a, y, x, dangle, 1, &ws)

		want := make([]float64, n)
		mass := 0.0
		for i := 0; i < n; i++ {
			cols, vals := a.Row(i)
			if len(cols) == 0 {
				mass += x[i]
				continue
			}
			dense := make([]float64, n)
			for k, col := range cols {
				dense[col] = vals[k]
			}
			for j := 0; j < n; j++ {
				want[j] += dense[j] * x[i]
			}
		}
		for j := 0; j < n; j++ {
			want[j] += mass * dangle[j]
			if math.Abs(y[j]-want[j]) > 1e-12 {
				t.Fatalf("trial %d: y[%d] = %v, want %v", trial, j, y[j], want[j])
			}
		}
	}
}

func TestMulTransposeWorkerInvariance(t *testing.T) {
	rng := sim.NewRNG(11)
	// Large enough for multiple scatter blocks.
	n := 3 * spmvBlockRows
	a := randomMatrix(rng, n)
	x, dangle := randomVectors(rng, n)
	ref := make([]float64, n)
	var ws Workspace
	MulTranspose(a, ref, x, dangle, 1, &ws)
	for _, workers := range []int{2, 3, 4, 8, 17} {
		y := make([]float64, n)
		var w2 Workspace
		MulTranspose(a, y, x, dangle, workers, &w2)
		for j := range y {
			if y[j] != ref[j] {
				t.Fatalf("workers=%d: y[%d] = %v differs from serial %v (bit-for-bit contract)",
					workers, j, y[j], ref[j])
			}
		}
	}
}

func TestMulTransposeNilDangle(t *testing.T) {
	a := NewRows[float64](2) // all rows dangling
	x := []float64{0.5, 0.5}
	y := []float64{9, 9}
	var ws Workspace
	MulTranspose(a, y, x, nil, 1, &ws)
	if y[0] != 0 || y[1] != 0 {
		t.Fatalf("nil dangle: y = %v, want zeros", y)
	}
}

func TestMulTransposeSteadyStateAllocFree(t *testing.T) {
	rng := sim.NewRNG(13)
	n := 400
	a := randomMatrix(rng, n)
	x, dangle := randomVectors(rng, n)
	y := make([]float64, n)
	var ws Workspace
	MulTranspose(a, y, x, dangle, 1, &ws) // warm the workspace
	allocs := testing.AllocsPerRun(50, func() {
		MulTranspose(a, y, x, dangle, 1, &ws)
	})
	if allocs != 0 {
		t.Fatalf("steady-state SpMV allocates %v objects/op, want 0", allocs)
	}
}

// TestScatterFoldBlocksMatchMulTranspose pins the cluster's block contract:
// partials computed by ScatterBlocks over any split of the canonical block
// range, folded by FoldBlocks, equal MulTranspose bit for bit at every
// worker count — with and without the dangling correction, from one block
// up to past the block-count cap.
func TestScatterFoldBlocksMatchMulTranspose(t *testing.T) {
	rng := sim.NewRNG(19)
	for _, n := range []int{1, spmvBlockRows, 3*spmvBlockRows + 5, (spmvMaxBlocks + 3) * spmvBlockRows} {
		a := randomMatrix(rng, n)
		x, dangle := randomVectors(rng, n)
		blocks := BlockCount(n)
		for _, dg := range [][]float64{dangle, nil} {
			for _, split := range []int{1, 2, 3, blocks} {
				var partials [][]float64
				var masses []float64
				per := (blocks + split - 1) / split
				for lob := 0; lob < blocks; lob += per {
					p, m := ScatterBlocks(a, x, lob, lob+per)
					partials, masses = append(partials, p...), append(masses, m...)
				}
				if len(partials) != blocks || len(masses) != blocks {
					t.Fatalf("n=%d split=%d: %d partials, %d masses, want %d", n, split, len(partials), len(masses), blocks)
				}
				folded := make([]float64, n)
				FoldBlocks(folded, dg, partials, masses)
				for _, workers := range []int{1, 2, 3, 8} {
					y := make([]float64, n)
					var ws Workspace
					MulTranspose(a, y, x, dg, workers, &ws)
					for j := range y {
						if y[j] != folded[j] {
							t.Fatalf("n=%d split=%d workers=%d nil-dangle=%v: y[%d] = %v, folded blocks %v",
								n, split, workers, dg == nil, j, y[j], folded[j])
						}
					}
				}
			}
		}
	}
}
