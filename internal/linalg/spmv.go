package linalg

import "repro/internal/sim"

// The scatter phase of the parallel SpMV works over fixed row blocks. The
// block decomposition is a function of the matrix dimension ONLY — never of
// the worker count — so each block's partial vector is computed by exactly
// one worker with a deterministic serial accumulation order, and the fold
// sums the partials in canonical (ascending block) order. Worker count then
// only changes which goroutine computes a block, not any float operation or
// its order: results are bit-for-bit identical for every parallelism.
const (
	spmvBlockRows = 256
	spmvMaxBlocks = 32
)

// BlockCount returns the canonical scatter block count for an n-row matrix —
// the decomposition the cluster layer fans out to worker processes. It is a
// function of n ONLY (never of worker or process count), which is what makes
// a distributed SpMV bit-identical to the local one: each block's partial is
// produced by the same serial accumulation wherever it runs, and FoldBlocks
// folds them in the same canonical order MulTranspose does.
func BlockCount(n int) int {
	b := (n + spmvBlockRows - 1) / spmvBlockRows
	if b < 1 {
		b = 1
	}
	if b > spmvMaxBlocks {
		b = spmvMaxBlocks
	}
	return b
}

// Workspace holds the SpMV scratch buffers (per-block partial vectors and
// dangling masses). Reusing one workspace across iterations keeps the power
// iteration allocation-free in steady state. A workspace must not be shared
// by concurrent SpMV calls.
type Workspace struct {
	partial [][]float64
	mass    []float64
}

// ensure sizes the workspace for a blocks×n scatter.
func (w *Workspace) ensure(blocks, n int) {
	if len(w.mass) < blocks {
		w.mass = make([]float64, blocks)
	}
	for len(w.partial) < blocks {
		w.partial = append(w.partial, nil)
	}
	for b := 0; b < blocks; b++ {
		if len(w.partial[b]) < n {
			w.partial[b] = make([]float64, n)
		}
	}
}

// MulTranspose computes y = Aᵀx + mass·dangle, where mass is the total x
// weight sitting on empty (dangling) rows of a: mass = Σ_{i : row i empty}
// x[i]. This is the rank-one uniform correction that replaces a dense
// uniform (or pretrust) fill of silent rows — dangle is the distribution a
// dangling row's weight jumps to (nil applies no correction). x and y must
// have length a.N() and must not overlap.
//
// The product scatters over the canonical row blocks on up to `workers`
// goroutines and folds the partial results in ascending block order; see
// the package comment for why the result is bit-for-bit identical at any
// worker count.
func MulTranspose(a *Rows[float64], y, x, dangle []float64, workers int, ws *Workspace) {
	n := a.N()
	if n == 0 {
		return
	}
	blocks := BlockCount(n)
	ws.ensure(blocks, n)
	partials, masses := ws.partial[:blocks], ws.mass[:blocks]

	// Scatter: each block accumulates its rows' contributions into its own
	// partial vector, rows ascending, columns ascending within a row.
	if workers <= 1 {
		// Inline serial path: no closures, so the steady state is
		// allocation-free.
		scatter(a, x, partials, masses, 0)
	} else {
		sim.ForChunks(workers, blocks, func(lob, hib int) {
			scatter(a, x, partials[lob:hib], masses[lob:hib], lob)
		})
	}

	// Fold: each output index is owned by one worker and sums the partials
	// in ascending block order — canonical regardless of chunking.
	mass := total(masses)
	if workers <= 1 {
		fold(y, dangle, partials, mass, 0, n)
	} else {
		sim.ForChunks(workers, n, func(lo, hi int) {
			fold(y, dangle, partials, mass, lo, hi)
		})
	}
}

// ScatterBlocks computes the partial vectors and dangling masses of the
// canonical scatter blocks [lob, hib) for y = Aᵀx: partials[k] is block
// lob+k's length-n partial, masses[k] its dangling x mass. It runs exactly
// the serial per-block accumulation MulTranspose's scatter phase runs, so a
// partial computed here — in another process, say — is bit-for-bit the one
// the local kernel would have produced. Pair with FoldBlocks on the full
// block set to finish the product.
func ScatterBlocks(a *Rows[float64], x []float64, lob, hib int) (partials [][]float64, masses []float64) {
	n := a.N()
	hib = min(hib, BlockCount(n))
	if n == 0 || lob >= hib {
		return nil, nil
	}
	partials = make([][]float64, hib-lob)
	for k := range partials {
		partials[k] = make([]float64, n)
	}
	masses = make([]float64, hib-lob)
	scatter(a, x, partials, masses, lob)
	return partials, masses
}

// FoldBlocks completes y = Aᵀx + mass·dangle from a full set of per-block
// partials (partials[b] for block b, ascending; masses likewise). The fold
// runs the same arithmetic in the same order as MulTranspose's fold phase —
// masses summed in ascending block order, each output index summing its
// partials in ascending block order before the rank-one dangling correction
// — so a product assembled from remotely computed blocks is bit-identical
// to the local one. dangle == nil applies no correction.
func FoldBlocks(y, dangle []float64, partials [][]float64, masses []float64) {
	fold(y, dangle, partials, total(masses), 0, len(y))
}

// scatter accumulates the canonical blocks lob, lob+1, … of Aᵀx, one per
// entry of partials: block lob+k's rows go into partials[k] (overwritten)
// and their dangling x mass into masses[k].
func scatter(a *Rows[float64], x []float64, partials [][]float64, masses []float64, lob int) {
	n := a.N()
	rowsPer := (n + BlockCount(n) - 1) / BlockCount(n)
	for k, p := range partials {
		p = p[:n]
		clear(p)
		mass := 0.0
		lo := (lob + k) * rowsPer
		hi := min(lo+rowsPer, n)
		for i := lo; i < hi; i++ {
			// Locals, not row fields: the stores into p would otherwise
			// force a reload of the row's slice headers per entry.
			cols, vals := a.rows[i].cols, a.rows[i].cells
			if len(cols) == 0 {
				mass += x[i]
				continue
			}
			xi := x[i]
			if xi == 0 {
				continue
			}
			vals = vals[:len(cols)]
			for c, col := range cols {
				p[col] += vals[c] * xi
			}
		}
		masses[k] = mass
	}
}

// fold sums output indices [lo, hi) across all block partials in ascending
// block order, applying the rank-one dangling correction when dangle is set.
func fold(y, dangle []float64, partials [][]float64, mass float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		s := 0.0
		for _, p := range partials {
			s += p[j]
		}
		if dangle != nil {
			s += mass * dangle[j]
		}
		y[j] = s
	}
}

// total sums v in ascending index order.
func total(v []float64) float64 {
	s := 0.0
	for _, m := range v {
		s += m
	}
	return s
}
