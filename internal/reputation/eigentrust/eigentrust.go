// Package eigentrust implements the EigenTrust algorithm (Kamvar, Schlosser,
// Garcia-Molina, WWW 2003), the first reputation baseline the paper cites:
// a PageRank-like global reputation computed as the principal eigenvector of
// the normalized local-trust matrix, damped toward a pre-trusted peer set.
package eigentrust

import (
	"fmt"
	"math"

	"repro/internal/overlay"
	"repro/internal/reputation"
)

// Config parameterizes the mechanism.
type Config struct {
	// N is the number of peers.
	N int
	// Alpha is the pre-trust blending weight (the paper's a), default 0.15.
	Alpha float64
	// Pretrusted lists the pre-trusted peer ids; empty means uniform
	// pre-trust. Ids must be in range and duplicate-free (New rejects
	// degenerate sets).
	Pretrusted []int
	// Epsilon is the L1 convergence threshold, default 1e-6.
	Epsilon float64
	// MaxIter bounds the power iteration, default 200.
	MaxIter int
	// ColdStart restarts every power iteration from the pretrust vector
	// instead of warm-starting from the previous fixed point. The fixed
	// point is unique for alpha > 0, so both starts converge to the same
	// scores within Epsilon; warm starts just take fewer iterations on
	// incremental recomputes. Cold starts reproduce the historical
	// iteration-for-iteration trajectory (useful for bitwise regression
	// baselines).
	ColdStart bool
}

func (c Config) withDefaults() (Config, error) {
	if c.N <= 0 {
		return c, fmt.Errorf("eigentrust: N must be positive, got %d", c.N)
	}
	if c.Alpha == 0 {
		c.Alpha = 0.15
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return c, fmt.Errorf("eigentrust: alpha %v out of [0,1]", c.Alpha)
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 1e-6
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 200
	}
	return c, nil
}

// Mechanism is the EigenTrust scoring engine: the shared power-iteration
// core (reputation.Walk) over the normalized local-trust matrix C, with the
// pretrust vector as both the dangling-row distribution and the jump.
// Only rows the LocalTrust dirty set names are rematerialized, buffers are
// reused across computes, and scores are bit-for-bit identical for every
// worker count.
type Mechanism struct {
	reputation.Walk
	cfg      Config //trustlint:derived configuration, identical by construction on restore
	lt       *reputation.LocalTrust
	pretrust []float64 //trustlint:derived configuration, rebuilt by New from cfg.Pretrusted
	dirty    bool
}

var _ reputation.Mechanism = (*Mechanism)(nil)

// New builds the mechanism.
func New(cfg Config) (*Mechanism, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	pretrust := reputation.UniformPretrust(cfg.N)
	if len(cfg.Pretrusted) > 0 {
		if pretrust, err = reputation.PretrustOver(cfg.N, cfg.Pretrusted); err != nil {
			return nil, fmt.Errorf("eigentrust: %w", err)
		}
	}
	m := &Mechanism{cfg: cfg, lt: reputation.NewLocalTrust(cfg.N), pretrust: pretrust}
	m.Walk = reputation.NewWalk(reputation.WalkConfig{
		Alpha: cfg.Alpha, Epsilon: cfg.Epsilon, MaxIter: cfg.MaxIter, ColdStart: cfg.ColdStart,
	}, m.lt, pretrust, pretrust)
	return m, nil
}

var (
	_ reputation.ComputeSharder      = (*Mechanism)(nil)
	_ reputation.SpMVDelegator       = (*Mechanism)(nil)
	_ reputation.BlockScatterer      = (*Mechanism)(nil)
	_ reputation.ConvergenceReporter = (*Mechanism)(nil)
	_ reputation.ScoresViewer        = (*Mechanism)(nil)
)

// Name implements reputation.Mechanism.
func (*Mechanism) Name() string { return "eigentrust" }

// LocalTrust exposes the accumulated matrix (read-only use).
func (m *Mechanism) LocalTrust() *reputation.LocalTrust { return m.lt }

// TrustworthyFraction implements reputation.CommunityAssessor: the fraction
// of rated peers with net-positive incoming local trust.
func (m *Mechanism) TrustworthyFraction() float64 {
	return m.lt.NetPositiveFraction()
}

var _ reputation.CommunityAssessor = (*Mechanism)(nil)

// Whitewash models a peer abandoning its identity and rejoining fresh: all
// local trust involving it is erased. Under EigenTrust a fresh identity has
// no incoming trust, so its global score collapses to its pre-trust share —
// whitewashing does not launder a bad EigenTrust reputation upward (the
// zero-default punishes newcomers).
func (m *Mechanism) Whitewash(peer int) {
	m.lt.ResetPeer(peer)
	m.dirty = true
}

// Submit implements reputation.Mechanism.
func (m *Mechanism) Submit(r reputation.Report) error {
	if err := m.lt.Add(r); err != nil {
		return fmt.Errorf("eigentrust: %w", err)
	}
	m.dirty = true
	return nil
}

// SubmitBatch implements reputation.BatchSubmitter: a whole round's reports
// fold through LocalTrust.AddBatch.
func (m *Mechanism) SubmitBatch(rs []reputation.Report) error {
	if len(rs) == 0 {
		return nil
	}
	m.dirty = true // partial folds before an error still count
	if err := m.lt.AddBatch(rs); err != nil {
		return fmt.Errorf("eigentrust: %w", err)
	}
	return nil
}

var _ reputation.BatchSubmitter = (*Mechanism)(nil)

// Compute runs the power iteration t ← (1−α)·(Cᵀt + mᵀ·p) + α·p — where m
// is the trust mass on dangling rows and p the pretrust vector — until the
// L1 change drops below Epsilon, returning the number of iterations
// performed. By default the iteration warm-starts from the previous fixed
// point (the first Compute starts from pretrust, which is what the scores
// are initialized to), so an incremental recompute pays only as many
// iterations as the matrix actually moved; Config.ColdStart restores the
// fixed pretrust start.
func (m *Mechanism) Compute() int {
	if !m.dirty {
		return 0
	}
	iters := m.Iterate()
	m.dirty = false
	return iters
}

// DistributedResult reports the cost of a distributed computation.
type DistributedResult struct {
	Rounds   int
	Messages int64
	// MaxDiff is the final L1 distance to the centralized fixed point.
	MaxDiff float64
}

// RunDistributed executes the secure-free distributed EigenTrust iteration
// over the overlay: in each round every live peer i sends c_ij·t_i to every
// peer j it has an opinion about, and each receiver folds contributions into
// its next trust value. It runs until convergence or maxRounds, then leaves
// the distributed scores installed in the mechanism.
//
// This exercises the same message pattern as the published distributed
// algorithm (without the secure score-manager layer, which TrustMe's DHT
// variant covers) and lets experiments charge real message costs.
func (m *Mechanism) RunDistributed(net *overlay.Network, maxRounds int) (DistributedResult, error) {
	if net.Size() < m.cfg.N {
		return DistributedResult{}, fmt.Errorf("eigentrust: overlay has %d nodes, need %d", net.Size(), m.cfg.N)
	}
	if maxRounds <= 0 {
		maxRounds = m.cfg.MaxIter
	}
	n := m.cfg.N
	// Sync the sparse matrix; peers with no positive opinions follow the
	// pretrust distribution (the paper's dangling-row rule), iterated on
	// the fly instead of materialized as dense rows.
	m.Refresh()
	csr := m.Matrix()
	t := append([]float64(nil), m.pretrust...)
	accum := make([]float64, n)

	type contrib struct{ value float64 }
	var res DistributedResult
	startMsgs := net.Stats().Sent

	for round := 0; round < maxRounds; round++ {
		for j := range accum {
			accum[j] = 0
		}
		// Install handlers that accumulate contributions this round.
		for j := 0; j < n; j++ {
			j := j
			if err := net.SetHandler(overlay.NodeID(j), func(msg overlay.Message) {
				if c, ok := msg.Payload.(contrib); ok {
					accum[j] += c.value
				}
			}); err != nil {
				return res, err
			}
		}
		for i := 0; i < n; i++ {
			if !net.Alive(overlay.NodeID(i)) || t[i] <= 0 {
				continue
			}
			if csr.RowEmpty(i) {
				for j, c := range m.pretrust {
					if c > 0 {
						net.Send(overlay.NodeID(i), overlay.NodeID(j), "et-contrib", contrib{value: c * t[i]})
					}
				}
				continue
			}
			cols, vals := csr.Row(i)
			for k, j := range cols {
				if vals[k] > 0 {
					net.Send(overlay.NodeID(i), overlay.NodeID(int(j)), "et-contrib", contrib{value: vals[k] * t[i]})
				}
			}
		}
		// Deliver this round's messages.
		if err := net.Sim().Run(0); err != nil {
			return res, err
		}
		diff := 0.0
		for j := 0; j < n; j++ {
			nv := (1-m.cfg.Alpha)*accum[j] + m.cfg.Alpha*m.pretrust[j]
			diff += math.Abs(nv - t[j])
			t[j] = nv
		}
		res.Rounds++
		if diff < m.cfg.Epsilon {
			break
		}
	}
	res.Messages = net.Stats().Sent - startMsgs

	// Compare against the centralized fixed point.
	m.dirty = true
	m.Compute()
	central := m.Raw()
	for j := 0; j < n; j++ {
		res.MaxDiff += math.Abs(t[j] - central[j])
	}
	m.SetRaw(t)
	return res, nil
}
