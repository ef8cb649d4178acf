// Package powertrust implements PowerTrust (Zhou & Hwang, TPDS 2007), the
// third reputation baseline the paper cites: it builds a trust overlay
// network (TON) from the feedback graph, elects the most-reputable "power
// nodes", and aggregates global reputation with a look-ahead random walk
// (LRW) that converges in fewer rounds than plain power iteration.
package powertrust

import (
	"fmt"
	"sort"

	"repro/internal/reputation"
)

// Config parameterizes the mechanism.
type Config struct {
	// N is the number of peers.
	N int
	// M is the number of power nodes (default max(1, N/20)).
	M int
	// Alpha is the greedy-jump weight toward power nodes (default 0.15).
	Alpha float64
	// Epsilon is the L1 convergence threshold, default 1e-6.
	Epsilon float64
	// MaxIter bounds the iteration, default 200.
	MaxIter int
	// LookAhead enables the look-ahead random walk (default on via
	// NewDefault; set false to ablate).
	LookAhead bool
	// ColdStart restarts every walk from the uniform distribution instead
	// of warm-starting from the previous stationary point. Both converge to
	// the same distribution within Epsilon (the walk is ergodic for
	// alpha > 0); warm starts just take fewer rounds on incremental
	// recomputes.
	ColdStart bool
}

func (c Config) withDefaults() (Config, error) {
	if c.N <= 0 {
		return c, fmt.Errorf("powertrust: N must be positive, got %d", c.N)
	}
	if c.M <= 0 {
		c.M = c.N / 20
		if c.M < 1 {
			c.M = 1
		}
	}
	if c.M > c.N {
		c.M = c.N
	}
	if c.Alpha == 0 {
		c.Alpha = 0.15
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return c, fmt.Errorf("powertrust: alpha %v out of [0,1]", c.Alpha)
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 1e-6
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 200
	}
	return c, nil
}

// pair aggregates ratings from one rater to one ratee.
type pair struct {
	sum   float64
	count int
}

// foldRating adds a rating, clamped to [0,1], to the pair's aggregate.
func foldRating(p *pair, v float64) {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	p.sum += v
	p.count++
}

// meanRating is the pair's feedback-matrix weight: its mean rating.
func meanRating(p pair) (float64, bool) { return p.sum / float64(p.count), true }

// Mechanism is the PowerTrust scoring engine: the shared power-iteration
// core (reputation.Walk) over the row-normalized feedback matrix R of mean
// ratings. Silent peers are dangling rows whose weight jumps uniformly;
// the greedy jump goes to the elected power nodes. The look-ahead variant
// applies the walk operator twice per round.
type Mechanism struct {
	reputation.Walk
	cfg      Config //trustlint:derived configuration, identical by construction on restore
	feedback reputation.Ratings[pair]
	power    []int
	dirty    bool
	jump     []float64 //trustlint:derived recomputed from the power-node election each Compute
	// Community-assessment scratch, reused across calls.
	tfSums   []float64 //trustlint:derived scratch, zeroed at the top of every TrustworthyFraction
	tfCounts []int     //trustlint:derived scratch, zeroed at the top of every TrustworthyFraction
}

var _ reputation.Mechanism = (*Mechanism)(nil)

func newMech(cfg Config) *Mechanism {
	m := &Mechanism{
		cfg:      cfg,
		feedback: reputation.NewRatings(cfg.N, foldRating, meanRating),
		jump:     make([]float64, cfg.N),
	}
	m.Walk = reputation.NewWalk(reputation.WalkConfig{
		Alpha: cfg.Alpha, Epsilon: cfg.Epsilon, MaxIter: cfg.MaxIter,
		LookAhead: cfg.LookAhead, ColdStart: cfg.ColdStart,
	}, &m.feedback, reputation.UniformPretrust(cfg.N), m.jump)
	return m
}

// New builds the mechanism with look-ahead enabled by default.
func New(cfg Config) (*Mechanism, error) {
	lookAheadSet := cfg.LookAhead
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if !lookAheadSet {
		cfg.LookAhead = true
	}
	return newMech(cfg), nil
}

// NewPlain builds the mechanism with look-ahead disabled (the ablation
// baseline: plain first-order random walk).
func NewPlain(cfg Config) (*Mechanism, error) {
	cfg.LookAhead = false
	cfgd, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cfgd.LookAhead = false
	return newMech(cfgd), nil
}

var (
	_ reputation.ComputeSharder      = (*Mechanism)(nil)
	_ reputation.SpMVDelegator       = (*Mechanism)(nil)
	_ reputation.BlockScatterer      = (*Mechanism)(nil)
	_ reputation.ConvergenceReporter = (*Mechanism)(nil)
	_ reputation.ScoresViewer        = (*Mechanism)(nil)
)

// Name implements reputation.Mechanism.
func (m *Mechanism) Name() string {
	if m.cfg.LookAhead {
		return "powertrust"
	}
	return "powertrust-plain"
}

// Submit implements reputation.Mechanism. Ratings are clamped to [0,1].
func (m *Mechanism) Submit(r reputation.Report) error {
	if err := m.feedback.Add(r); err != nil {
		return fmt.Errorf("powertrust: %w", err)
	}
	m.dirty = true
	return nil
}

// SubmitBatch implements reputation.BatchSubmitter. The first invalid
// report aborts the batch with the reports before it already folded.
func (m *Mechanism) SubmitBatch(rs []reputation.Report) error {
	err := m.feedback.AddBatch(rs)
	if m.feedback.HasDirty() { // any report folded, even before an error
		m.dirty = true
	}
	if err != nil {
		return fmt.Errorf("powertrust: %w", err)
	}
	return nil
}

var _ reputation.BatchSubmitter = (*Mechanism)(nil)

// electPowerNodes elects the m most reputable peers as power nodes, per the
// PowerTrust paper ("a small number of the most reputable power nodes").
// On the first election, before any global scores exist, it bootstraps from
// the trust overlay's weighted in-degree (sum of incoming mean ratings) —
// raw rater counts would let heavily-rated bad peers win. Ties break by id.
func (m *Mechanism) electPowerNodes() []int {
	rank := m.Raw() // the current scores, unless this election bootstraps
	uniform := 1 / float64(m.cfg.N)
	bootstrapped := true
	for _, s := range rank {
		if s > uniform*1.01 || s < uniform*0.99 {
			bootstrapped = false
			break
		}
	}
	if bootstrapped {
		clear(rank)
		for i := 0; i < m.cfg.N; i++ {
			cols, pairs := m.feedback.Row(i)
			for k, j := range cols {
				rank[j] += pairs[k].sum / float64(pairs[k].count)
			}
		}
	}
	ids := make([]int, m.cfg.N)
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		if rank[ids[a]] != rank[ids[b]] {
			return rank[ids[a]] > rank[ids[b]]
		}
		return ids[a] < ids[b]
	})
	return ids[:m.cfg.M]
}

// TrustworthyFraction implements reputation.CommunityAssessor: the fraction
// of rated peers whose mean incoming rating is at least 0.5. The scan stays
// a full canonical recompute (incremental cross-peer float accumulators
// would make results depend on fold order), but the accumulation buffers
// are reused across calls.
func (m *Mechanism) TrustworthyFraction() float64 {
	if m.tfSums == nil {
		m.tfSums = make([]float64, m.cfg.N)
		m.tfCounts = make([]int, m.cfg.N)
	}
	sums, counts := m.tfSums, m.tfCounts
	for j := range sums {
		sums[j] = 0
		counts[j] = 0
	}
	for i := 0; i < m.cfg.N; i++ {
		cols, pairs := m.feedback.Row(i)
		for k, j := range cols {
			sums[j] += pairs[k].sum
			counts[j] += pairs[k].count
		}
	}
	rated, positive := 0, 0
	for j := 0; j < m.cfg.N; j++ {
		if counts[j] == 0 {
			continue
		}
		rated++
		if sums[j]/float64(counts[j]) >= 0.5 {
			positive++
		}
	}
	if rated == 0 {
		return 1
	}
	return float64(positive) / float64(rated)
}

var _ reputation.CommunityAssessor = (*Mechanism)(nil)

// PowerNodes returns a copy of the most recently elected power nodes.
func (m *Mechanism) PowerNodes() []int {
	out := make([]int, len(m.power))
	copy(out, m.power)
	return out
}

// PowerNodesView returns the most recently elected power nodes without
// copying — the read-only fast path for observer loops that poll each
// recompute (experiment drivers, metrics collection). The slice is valid
// until the next Compute or restore; callers that retain or mutate it must
// use PowerNodes.
func (m *Mechanism) PowerNodesView() []int { return m.power }

// Compute elects power nodes and runs the (look-ahead) random walk until the
// L1 change drops below Epsilon. One look-ahead round applies the walk
// operator twice — each node aggregates its neighbors' own aggregated
// vectors, which is exactly one extra message exchange but halves the round
// count. Returns the number of rounds. By default the walk warm-starts from
// the previous stationary distribution (the first Compute starts uniform,
// which is what the scores are initialized to); Config.ColdStart restores
// the fixed uniform start.
func (m *Mechanism) Compute() int {
	if !m.dirty {
		return 0
	}
	m.power = m.electPowerNodes()
	clear(m.jump)
	share := 1 / float64(len(m.power))
	for _, p := range m.power {
		m.jump[p] = share
	}
	rounds := m.Iterate()
	m.dirty = false
	return rounds
}
