package linalg

import (
	"testing"

	"repro/internal/sim"
)

// TestRowsMatchesMapReference drives random inserts, updates and deletes
// against a map reference and checks every row reads back strictly
// ascending with the reference's cells.
func TestRowsMatchesMapReference(t *testing.T) {
	const n = 40
	r := NewRows[int](n)
	ref := make([]map[int]int, n)
	for i := range ref {
		ref[i] = map[int]int{}
	}
	rng := sim.NewRNG(9)
	for op := 0; op < 5000; op++ {
		i, j := rng.Intn(n), rng.Intn(n)
		switch rng.Intn(4) {
		case 0:
			if got, want := r.Delete(i, j), ref[i][j] != 0; got != want {
				t.Fatalf("Delete(%d,%d) = %v, want %v", i, j, got, want)
			}
			delete(ref[i], j)
		default:
			*r.Cell(i, j) += op + 1
			ref[i][j] += op + 1
		}
	}
	r.ClearRow(7)
	clear(ref[7])
	for i := 0; i < n; i++ {
		cols, cells := r.Row(i)
		if len(cols) != len(ref[i]) || r.Len(i) != len(ref[i]) {
			t.Fatalf("row %d has %d cells, want %d", i, len(cols), len(ref[i]))
		}
		for k, j := range cols {
			if k > 0 && cols[k-1] >= j {
				t.Fatalf("row %d not strictly ascending at %d: %v", i, k, cols)
			}
			if cells[k] != ref[i][int(j)] {
				t.Fatalf("cell (%d,%d) = %d, want %d", i, j, cells[k], ref[i][int(j)])
			}
			if c, ok := r.Get(i, int(j)); !ok || c != cells[k] {
				t.Fatalf("Get(%d,%d) = %d,%v", i, j, c, ok)
			}
		}
	}
	if _, ok := r.Get(7, 0); ok {
		t.Fatal("cleared row still holds a cell")
	}
}

func TestRowsCloneIsDeep(t *testing.T) {
	r := NewRows[float64](3)
	*r.Cell(0, 2) = 1
	c := r.Clone()
	*r.Cell(0, 2) = 5
	*r.Cell(0, 1) = 7
	if v, _ := c.Get(0, 2); v != 1 || c.Len(0) != 1 {
		t.Fatalf("clone follows the original: cell %v, len %d", v, c.Len(0))
	}
	if i := c.Grow(); i != 3 || c.N() != 4 || r.N() != 3 {
		t.Fatalf("Grow: index %d, clone N %d, original N %d", i, c.N(), r.N())
	}
}

// TestRowsLoadRejects checks Load accepts only strictly ascending in-range
// cells and leaves the matrix untouched otherwise.
func TestRowsLoadRejects(t *testing.T) {
	type cell struct{ i, j, v int }
	load := func(r *Rows[int], cs []cell) error {
		return r.Load(len(cs), func(k int) (int, int, int) { return cs[k].i, cs[k].j, cs[k].v })
	}
	r := NewRows[int](3)
	if err := load(r, []cell{{0, 1, 4}, {0, 2, 5}, {2, 0, 6}}); err != nil {
		t.Fatal(err)
	}
	bad := map[string][]cell{
		"row-range":  {{3, 0, 1}},
		"col-range":  {{0, -1, 1}},
		"row-order":  {{1, 0, 1}, {0, 2, 1}},
		"col-order":  {{0, 2, 1}, {0, 1, 1}},
		"duplicate":  {{1, 1, 1}, {1, 1, 2}},
		"late-range": {{0, 1, 1}, {1, 3, 1}},
	}
	for name, cs := range bad {
		if err := load(r, cs); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if v, ok := r.Get(2, 0); !ok || v != 6 || r.Len(0) != 2 || r.Len(1) != 0 {
			t.Fatalf("%s: rejected load changed the matrix", name)
		}
	}
}
