// Package linalg is the sparse linear-algebra kernel under the reputation
// mechanisms and the friendship graph: one sorted-row matrix type, Rows,
// with incremental per-row updates, and a deterministic, shard-parallel
// sparse matrix–vector product over a Rows[float64]. Every epoch the
// interaction graph touches only a sliver of the population, so the
// mechanisms rewrite just the changed rows and pay O(nnz) per power
// iteration instead of the Θ(n²) a dense [][]float64 costs.
//
// Determinism is a hard contract, matching the epoch pipeline's: all
// results are bit-for-bit identical for every worker count (see spmv.go for
// the canonical-fold argument).
package linalg

import (
	"fmt"
	"slices"
)

// Rows is a mutable square sparse matrix of cells of type C, one sorted row
// per index: each row holds strictly ascending int32 columns and a parallel
// cell slice. It is the store behind the reputation mechanisms' report
// matrices, their row-normalized walk matrices and the friendship graph's
// adjacency. Reads see a row in canonical column order with no sorting and
// no copy, which is the order row normalization, SpMV accumulation and
// snapshot encoding all need; get, insert and delete binary-search the row.
type Rows[C any] struct {
	rows []sortedRow[C]
}

type sortedRow[C any] struct {
	cols  []int32
	cells []C
}

// NewRows returns an empty n×n matrix.
func NewRows[C any](n int) *Rows[C] {
	if n < 0 {
		n = 0
	}
	return &Rows[C]{rows: make([]sortedRow[C], n)}
}

// N returns the matrix dimension.
func (r *Rows[C]) N() int { return len(r.rows) }

// Grow adds an empty row (and column) and returns its index.
func (r *Rows[C]) Grow() int {
	r.rows = append(r.rows, sortedRow[C]{})
	return len(r.rows) - 1
}

// Row returns row i's columns (strictly ascending) and cells. The slices
// alias internal storage: they are read-only and valid only until the next
// insert, delete or SetRow in row i.
func (r *Rows[C]) Row(i int) ([]int32, []C) {
	return r.rows[i].cols, r.rows[i].cells
}

// Len returns the number of stored cells in row i.
func (r *Rows[C]) Len(i int) int { return len(r.rows[i].cols) }

// Get returns cell (i, j) and whether it is stored.
func (r *Rows[C]) Get(i, j int) (C, bool) {
	row := &r.rows[i]
	if k, ok := slices.BinarySearch(row.cols, int32(j)); ok {
		return row.cells[k], true
	}
	var zero C
	return zero, false
}

// Cell returns a pointer to cell (i, j), inserting a zero cell at its
// column position first when absent. The pointer is valid until the next
// insert or delete in row i.
func (r *Rows[C]) Cell(i, j int) *C {
	row := &r.rows[i]
	k, ok := slices.BinarySearch(row.cols, int32(j))
	if !ok {
		var zero C
		row.cols = slices.Insert(row.cols, k, int32(j))
		row.cells = slices.Insert(row.cells, k, zero)
	}
	return &row.cells[k]
}

// Delete removes cell (i, j), reporting whether it was stored.
func (r *Rows[C]) Delete(i, j int) bool {
	row := &r.rows[i]
	k, ok := slices.BinarySearch(row.cols, int32(j))
	if ok {
		row.cols = slices.Delete(row.cols, k, k+1)
		row.cells = slices.Delete(row.cells, k, k+1)
	}
	return ok
}

// SetRow replaces row i with a copy of cols and cells, reusing the row's
// storage when it has room. cols must be strictly ascending and in range,
// and the two slices equally long: a violated invariant is a programming
// error and panics. The slices must not alias the row's own storage (pass
// scratch buffers, not the slices Row returns).
func (r *Rows[C]) SetRow(i int, cols []int32, cells []C) {
	n := len(r.rows)
	if i < 0 || i >= n {
		panic(fmt.Sprintf("linalg: SetRow row %d out of range [0,%d)", i, n))
	}
	if len(cols) != len(cells) {
		panic(fmt.Sprintf("linalg: SetRow row %d: %d cols vs %d cells", i, len(cols), len(cells)))
	}
	for k, col := range cols {
		if col < 0 || int(col) >= n {
			panic(fmt.Sprintf("linalg: SetRow row %d: column %d out of range [0,%d)", i, col, n))
		}
		if k > 0 && cols[k-1] >= col {
			panic(fmt.Sprintf("linalg: SetRow row %d: columns not strictly ascending at %d", i, k))
		}
	}
	row := &r.rows[i]
	row.cols = append(row.cols[:0], cols...)
	row.cells = append(row.cells[:0], cells...)
}

// ClearRow empties row i and releases its storage.
func (r *Rows[C]) ClearRow(i int) { r.rows[i] = sortedRow[C]{} }

// Clone returns a deep copy.
func (r *Rows[C]) Clone() *Rows[C] {
	c := &Rows[C]{rows: make([]sortedRow[C], len(r.rows))}
	for i, row := range r.rows {
		c.rows[i] = sortedRow[C]{cols: slices.Clone(row.cols), cells: slices.Clone(row.cells)}
	}
	return c
}

// Load replaces the whole matrix with count cells, where at(k) yields the
// k-th as (row, column, cell). Cells must arrive in strictly ascending
// (row, column) order — the order a row-by-row encoder writes — so a
// duplicate or out-of-order cell is an error, as is an out-of-range one;
// on any error the matrix is left untouched.
func (r *Rows[C]) Load(count int, at func(k int) (i, j int, c C)) error {
	n := len(r.rows)
	rows := make([]sortedRow[C], n)
	pi, pj := -1, -1
	for k := 0; k < count; k++ {
		i, j, c := at(k)
		if i < 0 || i >= n || j < 0 || j >= n {
			return fmt.Errorf("linalg: cell (%d,%d) out of range [0,%d)", i, j, n)
		}
		if i < pi || (i == pi && j <= pj) {
			return fmt.Errorf("linalg: cell (%d,%d) after (%d,%d): cells must be strictly ascending", i, j, pi, pj)
		}
		rows[i].cols = append(rows[i].cols, int32(j))
		rows[i].cells = append(rows[i].cells, c)
		pi, pj = i, j
	}
	r.rows = rows
	return nil
}
