package reputation

import (
	"math"

	"repro/internal/linalg"
)

// RowSource feeds a Walk's matrix: row i's unnormalized weights, columns
// ascending, plus the rows changed since the walk last materialized them.
// Ratings (and so LocalTrust) implements it.
type RowSource interface {
	AppendRow(i int, cols []int32, vals []float64) ([]int32, []float64)
	DirtyRows() []int
	HasDirty() bool
	ClearDirty()
}

// WalkConfig parameterizes a Walk.
type WalkConfig struct {
	// Alpha is the weight of the jump distribution in every step.
	Alpha float64
	// Epsilon is the L1 residual that stops the iteration.
	Epsilon float64
	// MaxIter bounds the rounds per Iterate.
	MaxIter int
	// LookAhead applies the step twice per round (PowerTrust's look-ahead
	// random walk) instead of once.
	LookAhead bool
	// ColdStart restarts every Iterate from the dangle distribution instead
	// of the previous fixed point.
	ColdStart bool
}

// Walk is the power-iteration core EigenTrust and PowerTrust embed. It owns
// the row-normalized matrix A as a CSR rematerialized incrementally from a
// RowSource, the SpMV workspace and worker count, the score vector with its
// max-normalized cache, and the convergence diagnostics. One step computes
//
//	y = (1−α)·(Aᵀx + mass·dangle) + α·jump
//
// where mass is the x weight on dangling (empty) rows, folded in by the
// kernel's rank-one correction instead of a dense fill. A round applies the
// step once (twice with LookAhead) and then takes the L1 residual against
// the round's start. The SpMV scatters over the configured workers with a
// canonical fold, so scores are bit-for-bit identical for every worker
// count.
//
// Embedding a Walk gives a mechanism Raw, Score, Scores, ScoresView,
// LastConvergence, SetComputeShards, SetSpMVDelegate, SpMVBlocks and
// SpMVScatterBlocks.
type Walk struct {
	cfg    WalkConfig
	src    RowSource
	dangle []float64
	jump   []float64
	scores []float64

	csr          *linalg.CSR
	ws           linalg.Workspace
	workers      int
	materialized bool // false forces a full rebuild on the next refresh
	// Reusable iteration and materialization scratch.
	vecA, vecB, vecMid []float64
	colScratch         []int32
	valScratch         []float64
	// Max-normalized score cache backing ScoresView.
	norm    []float64
	normMax float64
	// spmv, when set, computes the inner product remotely (the cluster
	// layer); nil or a false return runs the local kernel.
	spmv SpMVDelegate
	// Diagnostics of the most recent Iterate.
	lastConv Convergence
	hasConv  bool
}

// NewWalk returns a walk over src's n×n matrix. Dangling rows' weight jumps
// to dangle, which is also the initial score vector and the cold start.
// The walk reads jump at every step, so its owner may rewrite it between
// iterations. Both vectors are aliased, not copied.
func NewWalk(cfg WalkConfig, src RowSource, dangle, jump []float64) Walk {
	n := len(dangle)
	w := Walk{
		cfg:          cfg,
		src:          src,
		dangle:       dangle,
		jump:         jump,
		scores:       append([]float64(nil), dangle...),
		csr:          linalg.New(n),
		workers:      1,
		materialized: true, // a fresh CSR matches an empty source
		vecA:         make([]float64, n),
		vecB:         make([]float64, n),
		norm:         make([]float64, n),
	}
	if cfg.LookAhead {
		w.vecMid = make([]float64, n)
	}
	w.refreshNorm()
	return w
}

// SetComputeShards implements ComputeSharder: the SpMV scatters over k
// workers. Shards are a scheduling knob only — scores stay bit-for-bit
// identical for every k.
func (w *Walk) SetComputeShards(k int) {
	if k < 1 {
		k = 1
	}
	w.workers = k
}

// SetSpMVDelegate implements SpMVDelegator: the inner product routes through
// fn (nil restores the local kernel). The delegate is bit-exact by
// contract, so delegated and local iterations produce identical scores.
func (w *Walk) SetSpMVDelegate(fn SpMVDelegate) { w.spmv = fn }

// SpMVBlocks implements BlockScatterer.
func (w *Walk) SpMVBlocks() int { return linalg.BlockCount(w.csr.N()) }

// SpMVScatterBlocks implements BlockScatterer: it rematerializes any dirty
// rows, then computes the canonical block partials of Aᵀx. Row
// materialization is a pure function of the source, so a replica that
// folded the same reports returns bit-identical partials.
func (w *Walk) SpMVScatterBlocks(x []float64, lob, hib int) ([][]float64, []float64) {
	w.Refresh()
	return w.csr.ScatterBlocks(x, lob, hib)
}

// Matrix returns the row-normalized matrix as of the last refresh
// (read-only).
func (w *Walk) Matrix() *linalg.CSR { return w.csr }

// Refresh rematerializes the CSR rows whose source changed since the last
// refresh — only the dirty rows in steady state, every row after Resume.
// Each row is normalized to sum 1; a row with no positive weight is left
// empty (dangling). Materialization is a pure function of the row's
// source, so an incrementally maintained matrix is bit-for-bit identical
// to one rebuilt from scratch.
func (w *Walk) Refresh() {
	if w.materialized && !w.src.HasDirty() {
		return
	}
	if !w.materialized {
		for i := 0; i < w.csr.N(); i++ {
			w.setRow(i)
		}
		w.materialized = true
	} else {
		for _, i := range w.src.DirtyRows() {
			w.setRow(i)
		}
	}
	w.src.ClearDirty()
}

func (w *Walk) setRow(i int) {
	w.colScratch, w.valScratch = w.src.AppendRow(i, w.colScratch[:0], w.valScratch[:0])
	w.csr.SetRow(i, w.colScratch, w.valScratch)
	w.csr.NormalizeRow(i)
}

// step computes dst = (1−α)·(Aᵀsrc + mass·dangle) + α·jump.
func (w *Walk) step(dst, src []float64) {
	if w.spmv == nil || !w.spmv(dst, src, w.dangle) {
		w.csr.MulTranspose(dst, src, w.dangle, w.workers, &w.ws)
	}
	for j := range dst {
		dst[j] = (1-w.cfg.Alpha)*dst[j] + w.cfg.Alpha*w.jump[j]
	}
}

// Iterate refreshes the matrix and runs rounds until the L1 residual drops
// below Epsilon or MaxIter rounds have run, then installs the result as the
// scores and returns the rounds performed. It warm-starts from the current
// scores unless ColdStart is set; Epsilon is the same either way.
func (w *Walk) Iterate() int {
	w.Refresh()
	t, next, mid := w.vecA, w.vecB, w.vecMid
	warm := !w.cfg.ColdStart
	if warm {
		copy(t, w.scores)
	} else {
		copy(t, w.dangle)
	}
	rounds := 0
	residual := 0.0
	for ; rounds < w.cfg.MaxIter; rounds++ {
		if w.cfg.LookAhead {
			w.step(mid, t)
			w.step(next, mid)
		} else {
			w.step(next, t)
		}
		diff := 0.0
		for j := range next {
			diff += math.Abs(next[j] - t[j])
		}
		t, next = next, t
		residual = diff
		if diff < w.cfg.Epsilon {
			rounds++
			break
		}
	}
	w.vecA, w.vecB = t, next // keep the buffer pair owned by the walk
	w.SetRaw(t)
	w.lastConv = Convergence{Iterations: rounds, Residual: residual, Warm: warm}
	w.hasConv = true
	return rounds
}

// SetRaw installs v as the score vector.
func (w *Walk) SetRaw(v []float64) {
	copy(w.scores, v)
	w.refreshNorm()
}

// Resume installs restored scores and diagnostics and marks the matrix
// for a full rebuild on the next refresh.
func (w *Walk) Resume(scores []float64, conv Convergence, hasConv bool) {
	w.SetRaw(scores)
	w.materialized = false
	w.lastConv, w.hasConv = conv, hasConv
}

// refreshNorm rebuilds the max-normalized score cache behind ScoresView.
func (w *Walk) refreshNorm() {
	maxV := 0.0
	for _, v := range w.scores {
		if v > maxV {
			maxV = v
		}
	}
	w.normMax = maxV
	if maxV == 0 {
		clear(w.norm)
		return
	}
	for i, v := range w.scores {
		w.norm[i] = v / maxV
	}
}

// LastConvergence implements ConvergenceReporter.
func (w *Walk) LastConvergence() (Convergence, bool) { return w.lastConv, w.hasConv }

// Raw returns a copy of the score distribution (sums to ~1).
func (w *Walk) Raw() []float64 { return append([]float64(nil), w.scores...) }

// Score implements Mechanism: the peer's score normalized by the maximum,
// so the best peer scores 1.
func (w *Walk) Score(peer int) float64 {
	if peer < 0 || peer >= len(w.scores) || w.normMax == 0 {
		return 0
	}
	return w.scores[peer] / w.normMax
}

// Scores implements Mechanism.
func (w *Walk) Scores() []float64 { return append([]float64(nil), w.norm...) }

// ScoresView implements ScoresViewer: the max-normalized scores without the
// copy. Read-only; valid until the next Iterate or restore.
func (w *Walk) ScoresView() []float64 { return w.norm }
