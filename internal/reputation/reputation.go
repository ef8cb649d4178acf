// Package reputation defines the common framework the paper adopts from
// Marti & Garcia-Molina (§2.2): a reputation system decomposes into
// information gathering, scoring & ranking, and response. This package holds
// the shared pieces — feedback reports, the local-trust matrix, the
// disclosure-limited gatherer that ties reputation to the privacy facet, and
// response policies — while the eigentrust, powertrust and trustme
// subpackages implement the cited scoring mechanisms.
package reputation

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Report is one feedback report: rater's rating of ratee for transaction
// TxID, in [0,1]. The JSON encoding backs the serving API and the
// report-wave intervention's schedule envelope; TxID is omitted there —
// the engine assigns transaction ids when a report is applied.
type Report struct {
	TxID  uint64  `json:"-"`
	Rater int     `json:"rater"`
	Ratee int     `json:"ratee"`
	Value float64 `json:"value"`
}

// Mechanism is a pluggable scoring engine ("scoring and ranking" block).
type Mechanism interface {
	// Name identifies the mechanism in experiment output.
	Name() string
	// Submit feeds one gathered report into the mechanism.
	Submit(r Report) error
	// Compute recomputes global scores, returning the number of iterations
	// (rounds) the computation needed.
	Compute() int
	// Score returns the current global score of a peer in [0,1].
	Score(peer int) float64
	// Scores returns all peers' scores indexed by peer id.
	Scores() []float64
}

// SatThreshold is the rating at or above which a transaction counts as
// satisfactory for mechanisms with binary local trust (EigenTrust's
// sat/unsat bookkeeping).
const SatThreshold = 0.5

// BatchSubmitter is implemented by mechanisms that can fold a whole round's
// reports in one call, amortizing per-report overhead (row lookups,
// dirty-set inserts) across the batch. Folding a batch must leave the
// mechanism in exactly the state that calling Submit for each report in
// order would; an invalid report aborts the batch with an error, the
// reports before it already folded. Callers that need per-report error
// isolation (reports of unvetted provenance) must use Submit.
type BatchSubmitter interface {
	SubmitBatch(rs []Report) error
}

// ScoresViewer is implemented by mechanisms that can expose their current
// score vector without copying. The returned slice is READ-ONLY and valid
// only until the mechanism's next Compute, Submit-triggered recompute, or
// state restore: callers that need to retain or mutate scores must use
// Scores() instead. It exists for the per-round observer paths (candidate
// gating, facet measurement) that would otherwise copy n floats every
// round.
type ScoresViewer interface {
	// ScoresView returns the same values Scores() would, uncopied.
	ScoresView() []float64
}

// ScoresOf returns m's scores through the read-only fast path when the
// mechanism offers one, falling back to the copying accessor. The result
// must be treated as read-only and not retained across mechanism mutations
// (see ScoresViewer).
func ScoresOf(m Mechanism) []float64 {
	if v, ok := m.(ScoresViewer); ok {
		return v.ScoresView()
	}
	return m.Scores()
}

// ComputeSharder is implemented by mechanisms whose Compute scatters work
// over parallel worker shards. Implementations guarantee the epoch
// pipeline's determinism contract: scores are bit-for-bit identical for
// every shard count, so the engine may wire its scheduling configuration
// straight through.
type ComputeSharder interface {
	// SetComputeShards sets the worker count used by Compute (values < 1
	// are clamped to 1).
	SetComputeShards(k int)
}

// Convergence describes one iterative Compute run: how many iterations the
// solver performed, the final L1 residual when it stopped, and whether the
// iteration was warm-started from the previous fixed point.
type Convergence struct {
	Iterations int     `json:"iterations"`
	Residual   float64 `json:"residual"`
	Warm       bool    `json:"warm"`
}

// ConvergenceReporter is implemented by mechanisms whose Compute is an
// iterative solver and can report the diagnostics of its most recent run.
type ConvergenceReporter interface {
	// LastConvergence returns the diagnostics of the most recent Compute
	// that actually ran an iteration; ok is false before the first such run.
	LastConvergence() (Convergence, bool)
}

// CommunityAssessor is implemented by mechanisms that can report their
// conclusion about the population: the fraction of rated peers the
// mechanism considers trustworthy. Section 3 of the paper makes this a
// first-class signal — "the set of those levels may indicate the
// trustworthy of the global system": an efficient mechanism concluding that
// the majority is untrustworthy must LOWER trust towards the system, not
// raise it.
type CommunityAssessor interface {
	// TrustworthyFraction returns, over peers with any feedback, the
	// fraction the mechanism concludes are trustworthy (1 when no peer has
	// feedback yet).
	TrustworthyFraction() float64
}

// Ratings is the sparse rater×ratee report store the matrix mechanisms
// fold into: one sorted linalg.Rows row per rater holding a cell of report
// aggregates C for every ratee it has rated, plus the set of rows changed
// since the mechanism last materialized them, so a recompute touches
// O(changed rows), not Θ(n²). fold gives a report's meaning to its cell;
// weight maps a cell to its unnormalized walk weight, or reports that the
// cell contributes no entry.
type Ratings[C any] struct {
	rows   *linalg.Rows[C]
	dirty  metrics.DirtySet //trustlint:derived restore leaves it empty; the owner's first refresh rebuilds every row
	fold   func(c *C, value float64)
	weight func(c C) (float64, bool)
}

// NewRatings returns an empty store for n peers.
func NewRatings[C any](n int, fold func(c *C, value float64), weight func(c C) (float64, bool)) Ratings[C] {
	return Ratings[C]{rows: linalg.NewRows[C](n), fold: fold, weight: weight}
}

// N returns the matrix dimension.
func (r *Ratings[C]) N() int { return r.rows.N() }

// Add folds a report into the store. Out-of-range peers or self-ratings
// are rejected.
func (r *Ratings[C]) Add(rep Report) error {
	n := r.rows.N()
	if rep.Rater < 0 || rep.Rater >= n || rep.Ratee < 0 || rep.Ratee >= n {
		return fmt.Errorf("reputation: report %d->%d out of range [0,%d)", rep.Rater, rep.Ratee, n)
	}
	if rep.Rater == rep.Ratee {
		return fmt.Errorf("reputation: self-rating by %d rejected", rep.Rater)
	}
	r.fold(r.rows.Cell(rep.Rater, rep.Ratee), rep.Value)
	r.dirty.Mark(rep.Rater)
	return nil
}

// AddBatch folds a batch of reports. The result is exactly that of calling
// Add for each report in order; the first invalid report aborts the batch
// with the reports before it already folded.
func (r *Ratings[C]) AddBatch(rs []Report) error {
	for i := range rs {
		if err := r.Add(rs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Row returns rater i's ratees (ascending) and their cells. The slices
// alias internal storage: read-only, valid until the next fold into row i.
func (r *Ratings[C]) Row(i int) ([]int32, []C) { return r.rows.Row(i) }

// AppendRow appends row i's weighted entries — column indices ascending —
// to the given scratch slices and returns them. It is the materialization
// feed of the mechanisms' CSR rebuild.
func (r *Ratings[C]) AppendRow(i int, cols []int32, vals []float64) ([]int32, []float64) {
	if i < 0 || i >= r.rows.N() {
		return cols, vals
	}
	rc, cells := r.rows.Row(i)
	for k, c := range cells {
		if w, ok := r.weight(c); ok {
			cols = append(cols, rc[k])
			vals = append(vals, w)
		}
	}
	return cols, vals
}

// Load replaces the store's contents with count cells, where at(k) yields
// the k-th as (rater, ratee, cell) in strictly ascending (rater, ratee)
// order. Out-of-range, out-of-order or duplicate cells are rejected and
// leave the store untouched. The dirty set is emptied: a restored owner
// rebuilds every row on its first refresh.
func (r *Ratings[C]) Load(count int, at func(k int) (rater, ratee int, c C)) error {
	if err := r.rows.Load(count, at); err != nil {
		return err
	}
	r.dirty.Reset()
	return nil
}

// DirtyRows returns, in ascending order, the rows changed since the last
// ClearDirty — the rows whose CSR materialization is stale. The slice is
// owned by the store and valid until the next fold or ClearDirty.
func (r *Ratings[C]) DirtyRows() []int { return r.dirty.Sorted() }

// HasDirty reports whether any row changed since the last ClearDirty.
func (r *Ratings[C]) HasDirty() bool { return r.dirty.Len() > 0 }

// ClearDirty empties the dirty set (called after the mechanism has
// rematerialized the rows it reported).
func (r *Ratings[C]) ClearDirty() { r.dirty.Reset() }

// cell is one (rater, ratee) aggregate of the local-trust matrix.
type cell struct{ sat, unsat int32 }

// LocalTrust accumulates reports into EigenTrust-style local trust values:
// s_ij = sat(i,j) − unsat(i,j), and normalized rows
// c_ij = max(s_ij,0) / Σ_j max(s_ij,0). It stores only pairs that ever
// exchanged a report.
type LocalTrust struct {
	Ratings[cell]
}

// NewLocalTrust returns an empty matrix for n peers.
func NewLocalTrust(n int) *LocalTrust {
	return &LocalTrust{NewRatings(n, foldSatUnsat, positiveTrust)}
}

// foldSatUnsat counts a rating >= SatThreshold as satisfactory.
func foldSatUnsat(c *cell, value float64) {
	if value >= SatThreshold {
		c.sat++
	} else {
		c.unsat++
	}
}

// positiveTrust is s_ij when positive; non-positive pairs carry no trust.
func positiveTrust(c cell) (float64, bool) {
	return float64(c.sat - c.unsat), c.sat > c.unsat
}

// S returns max(sat−unsat, 0) for the pair (i, j).
func (l *LocalTrust) S(i, j int) float64 {
	if i < 0 || i >= l.N() || j < 0 || j >= l.N() {
		return 0
	}
	c, _ := l.rows.Get(i, j)
	if v, ok := positiveTrust(c); ok {
		return v
	}
	return 0
}

// NormalizedRow returns row i of the normalized matrix C as a dense vector.
// If the row is empty (peer i has no positive local trust), the pretrust
// distribution is returned instead, per the EigenTrust paper. It exists for
// single-row inspection and the dense reference implementation; the compute
// path materializes rows sparsely via AppendRow.
func (l *LocalTrust) NormalizedRow(i int, pretrust []float64) []float64 {
	row := make([]float64, l.N())
	sum := 0.0
	for j := range row {
		row[j] = l.S(i, j)
		sum += row[j]
	}
	if sum == 0 {
		copy(row, pretrust)
		return row
	}
	for j := range row {
		row[j] /= sum
	}
	return row
}

// NetPositiveFraction returns, over peers that received at least one
// rating, the fraction whose incoming net trust Σ_i (sat_i − unsat_i) is
// positive — the matrix's conclusion about community trustworthiness.
// It returns 1 when no peer has incoming ratings. Cost: O(nnz).
func (l *LocalTrust) NetPositiveFraction() float64 {
	n := l.N()
	net := make([]int32, n)
	seen := make([]int32, n)
	for i := 0; i < n; i++ {
		cols, cells := l.rows.Row(i)
		for k, j := range cols {
			net[j] += cells[k].sat - cells[k].unsat
			seen[j] += cells[k].sat + cells[k].unsat
		}
	}
	rated, positive := 0, 0
	for p := 0; p < n; p++ {
		if seen[p] == 0 {
			continue
		}
		rated++
		if net[p] > 0 {
			positive++
		}
	}
	if rated == 0 {
		return 1
	}
	return float64(positive) / float64(rated)
}

// ResetPeer erases all local trust involving a peer — the matrix state a
// whitewasher's fresh identity would present (no one has rated it, it has
// rated no one). Every touched row joins the dirty set.
func (l *LocalTrust) ResetPeer(i int) {
	if i < 0 || i >= l.N() {
		return
	}
	if l.rows.Len(i) > 0 {
		l.rows.ClearRow(i)
		l.dirty.Mark(i)
	}
	for k := 0; k < l.N(); k++ {
		if l.rows.Delete(k, i) {
			l.dirty.Mark(k)
		}
	}
}

// HasOutgoing reports whether peer i has any positive local trust.
func (l *LocalTrust) HasOutgoing(i int) bool {
	if i < 0 || i >= l.N() {
		return false
	}
	_, cells := l.rows.Row(i)
	for _, c := range cells {
		if _, ok := positiveTrust(c); ok {
			return true
		}
	}
	return false
}

// UniformPretrust returns the uniform distribution over n peers.
func UniformPretrust(n int) []float64 {
	p := make([]float64, n)
	if n == 0 {
		return p
	}
	for i := range p {
		p[i] = 1 / float64(n)
	}
	return p
}

// PretrustOver returns the distribution concentrated uniformly on the given
// pre-trusted peers. The set must be non-empty, in range, and free of
// duplicates: an empty set would yield a degenerate all-zero vector (use
// UniformPretrust for uniform pre-trust), a silently-skipped invalid id
// would leave the distribution summing below 1, and a duplicated id would
// skew double weight onto one peer — all three are configuration mistakes
// the caller must hear about, not absorb.
func PretrustOver(n int, trusted []int) ([]float64, error) {
	if len(trusted) == 0 {
		return nil, fmt.Errorf("reputation: empty pre-trusted set (use UniformPretrust for uniform pre-trust)")
	}
	p := make([]float64, n)
	share := 1 / float64(len(trusted))
	for _, i := range trusted {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("reputation: pre-trusted peer %d out of range [0,%d)", i, n)
		}
		if p[i] != 0 {
			return nil, fmt.Errorf("reputation: duplicate pre-trusted peer %d", i)
		}
		p[i] = share
	}
	return p, nil
}

// Gatherer implements the "information gathering" block under privacy
// constraints: each rater's reports reach the mechanism only with the
// rater's disclosure probability. This is the operational link between the
// paper's privacy axis ("quantity of shared information") and reputation
// power.
type Gatherer struct {
	rng        *sim.RNG
	disclosure []float64
	sharedBy   map[int]int64
	// Gathered and Withheld count reports passed vs suppressed.
	Gathered, Withheld int64
}

// NewGatherer builds a gatherer. disclosure[i] is peer i's probability of
// sharing any given report, clamped to [0,1].
func NewGatherer(rng *sim.RNG, disclosure []float64) *Gatherer {
	d := make([]float64, len(disclosure))
	for i, v := range disclosure {
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		d[i] = v
	}
	return &Gatherer{rng: rng, disclosure: d, sharedBy: make(map[int]int64)}
}

// SharedBy returns how many reports the given rater has disclosed.
func (g *Gatherer) SharedBy(rater int) int64 { return g.sharedBy[rater] }

// SetDisclosure updates one rater's disclosure probability in place (clamped
// to [0,1]), preserving the gatherer's random stream and gathering counters.
// This is the delta-update seam the sparse §3 coupling uses: rebuilding the
// gatherer per epoch would recopy an n-length vector and re-split a random
// stream just to move a handful of cells. Out-of-range raters are ignored.
func (g *Gatherer) SetDisclosure(rater int, p float64) {
	if rater < 0 || rater >= len(g.disclosure) {
		return
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	g.disclosure[rater] = p
}

// Admit performs the rater's disclosure draw without delivering anything:
// it returns whether the rater shares the report, counting Withheld when
// not. Callers that buffer admitted reports for batched delivery must call
// Commit for each successfully delivered one, so the Gathered/SharedBy
// accounting stays exactly what per-report Offer calls would produce.
func (g *Gatherer) Admit(rater int) bool {
	p := 1.0
	if rater >= 0 && rater < len(g.disclosure) {
		p = g.disclosure[rater]
	}
	if !g.rng.Bool(p) {
		g.Withheld++
		return false
	}
	return true
}

// Commit records one admitted report as successfully delivered to the
// mechanism (the second half of the Admit/Commit pair).
func (g *Gatherer) Commit(rater int) {
	g.Gathered++
	g.sharedBy[rater]++
}

// Offer submits the report to the mechanism iff the rater's disclosure
// admits it. It reports whether the report was shared.
func (g *Gatherer) Offer(m Mechanism, r Report) (bool, error) {
	if !g.Admit(r.Rater) {
		return false, nil
	}
	if err := m.Submit(r); err != nil {
		return false, err
	}
	g.Commit(r.Rater)
	return true, nil
}

// SelectBest is the "response" block used by the experiments: choose the
// candidate with the highest score, breaking ties uniformly. It returns -1
// for an empty candidate list.
func SelectBest(rng *sim.RNG, scores []float64, candidates []int) int {
	best := -1
	bestScore := -1.0
	ties := 0
	for _, c := range candidates {
		if c < 0 || c >= len(scores) {
			continue
		}
		s := scores[c]
		switch {
		case s > bestScore:
			best, bestScore, ties = c, s, 1
		case s == bestScore:
			// Reservoir-sample among ties for uniformity.
			ties++
			if rng.Intn(ties) == 0 {
				best = c
			}
		}
	}
	return best
}

// SelectProportional chooses a candidate with probability proportional to
// its score (uniform when all scores are zero). It returns -1 for an empty
// list. EigenTrust's paper recommends this to avoid overloading the
// highest-reputation peers.
func SelectProportional(rng *sim.RNG, scores []float64, candidates []int) int {
	total := 0.0
	valid := make([]int, 0, len(candidates))
	for _, c := range candidates {
		if c >= 0 && c < len(scores) && scores[c] >= 0 {
			valid = append(valid, c)
			total += scores[c]
		}
	}
	if len(valid) == 0 {
		return -1
	}
	if total == 0 {
		return valid[rng.Intn(len(valid))]
	}
	x := rng.Float64() * total
	for _, c := range valid {
		x -= scores[c]
		if x <= 0 {
			return c
		}
	}
	return valid[len(valid)-1]
}

// None is the no-reputation baseline: every peer scores the same neutral
// value, so response policies degrade to uniform choice.
type None struct {
	n      int       //trustlint:derived configuration, fixed by NewNone
	scores []float64 //trustlint:derived constant neutral vector, rebuilt identically by NewNone
}

// NewNone returns the baseline for n peers.
func NewNone(n int) *None {
	m := &None{n: n, scores: make([]float64, n)}
	for i := range m.scores {
		m.scores[i] = 0.5
	}
	return m
}

// Name implements Mechanism.
func (*None) Name() string { return "none" }

// Submit implements Mechanism (reports are discarded).
func (*None) Submit(Report) error { return nil }

// Compute implements Mechanism.
func (*None) Compute() int { return 0 }

// Score implements Mechanism.
func (*None) Score(int) float64 { return 0.5 }

// Scores implements Mechanism.
func (m *None) Scores() []float64 {
	return append([]float64(nil), m.scores...)
}

// ScoresView implements ScoresViewer (the baseline's scores never change).
func (m *None) ScoresView() []float64 { return m.scores }

var (
	_ Mechanism    = (*None)(nil)
	_ ScoresViewer = (*None)(nil)
)
