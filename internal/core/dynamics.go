package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/reputation"
	"repro/internal/workload"
)

// DynamicsConfig configures the coupled-feedback simulation of §3 / Fig. 1.
type DynamicsConfig struct {
	// Workload is the scenario template. Its Disclosure field is the base
	// disclosure δ_base.
	Workload workload.Config
	// Weights combine the facets into trust (default DefaultWeights).
	Weights Weights
	// Inertia smooths trust across epochs (default 0.5). The zero value
	// means "default"; pass any negative value for an explicit zero
	// (memoryless trust).
	Inertia float64
	// BaseHonesty h0 is the truthful-reporting probability at zero trust;
	// honesty rises to 1 with full trust (default 0.3). The zero value
	// means "default"; pass any negative value for an explicit zero.
	BaseHonesty float64
	// EpochRounds is how many workload rounds one coupling epoch spans
	// (default 10).
	EpochRounds int
	// Coupled enables the §3 feedback loops. When false, disclosure and
	// honesty stay pinned at their base values (the E1 ablation).
	Coupled bool
	// ExposureScale normalizes ledger exposure (default 50).
	ExposureScale float64
}

func (c DynamicsConfig) withDefaults() DynamicsConfig {
	if c.Weights == (Weights{}) {
		c.Weights = DefaultWeights()
	}
	switch {
	case c.Inertia < 0:
		c.Inertia = 0
	case c.Inertia == 0:
		c.Inertia = 0.5
	}
	switch {
	case c.BaseHonesty < 0:
		c.BaseHonesty = 0
	case c.BaseHonesty == 0:
		c.BaseHonesty = 0.3
	}
	if c.EpochRounds <= 0 {
		c.EpochRounds = 10
	}
	if c.ExposureScale == 0 {
		c.ExposureScale = 50
	}
	return c
}

// EpochStats records the coupled system's state after one epoch.
type EpochStats struct {
	Epoch int `json:"epoch"`
	// Trust is the mean trust towards the system.
	Trust float64 `json:"trust"`
	// Satisfaction, Reputation, Privacy are the mean facet values.
	Satisfaction float64 `json:"satisfaction"`
	Reputation   float64 `json:"reputation"`
	Privacy      float64 `json:"privacy"`
	// Disclosure and Honesty are the mean realized coupling variables.
	Disclosure float64 `json:"disclosure"`
	Honesty    float64 `json:"honesty"`
	// BadRate is the epoch's bad-service rate.
	BadRate float64 `json:"bad_rate"`
	// Tau is the current reputation/ground-truth rank correlation.
	Tau float64 `json:"tau"`
	// Community is the mechanism's conclusion: the fraction of rated peers
	// it considers trustworthy.
	Community float64 `json:"community"`
	// MechIterations is how many solver iterations the mechanism spent this
	// epoch (periodic recomputes plus the measurement barrier); MechResidual
	// is the final L1 residual of its most recent iterative Compute. Both
	// are 0 for non-iterative mechanisms.
	MechIterations int     `json:"mech_iterations"`
	MechResidual   float64 `json:"mech_residual"`
	// SettledUsers is how many users ended the epoch at their bitwise trust
	// fixed point — users the next epoch's sparse update may skip outright
	// unless their facets change. DirtyFacets is how many users' facet
	// triples this epoch treated as changed (the whole population when the
	// global reputation facet or the exposure scale moved). Both are
	// schedule-independent: the dense reference path maintains them
	// identically, so they are safe to golden-pin.
	SettledUsers int `json:"settled_users"`
	DirtyFacets  int `json:"dirty_facets"`
}

// Dynamics runs the coupled three-facet system: each epoch measures the
// facets, updates every user's trust, and — when coupled — feeds trust back
// into disclosure willingness ("the less a user trusts towards the system,
// the less she discloses information") and honest contribution ("the more a
// user trusts towards the system, the more she contributes honestly").
type Dynamics struct {
	cfg            DynamicsConfig
	eng            *workload.Engine
	tm             *TrustModel
	ledger         *privacy.Ledger
	baseDisclosure float64
	disclosure     []float64
	honesty        []float64
	epoch          int
	history        []EpochStats

	// Sub-linear epoch tail state. The global reputation facet is shared by
	// every user, so a change in its value dirties the whole population;
	// prevRepFacet detects that by value (NaN before the first epoch, so
	// epoch 0 is always dense). couplingAll forces the next §3 coupling pass
	// to visit every user — set initially (the coupling invariant is not yet
	// established) and by the base-disclosure / base-honesty / coupling
	// interventions, whose effects are not proportional to trust movement.
	// Both are serialized: a resumed run must go dense exactly when the
	// uninterrupted one would.
	prevRepFacet float64
	couplingAll  bool
	// prevLedgerScale detects mid-run exposure-scale interventions, which
	// reprice every privacy facet at once (re-derived from the engine on
	// restore, so it needs no serialization).
	prevLedgerScale float64 //trustlint:derived re-read from the restored engine's ledger scale
	// discAll/honAll force full in-place installs of the coupling vectors at
	// the next epoch; otherwise only the cells listed in discDirty/honDirty
	// (ascending, appended by the last coupling pass) are rewritten. All
	// four are forced to the full-install state on restore: a full in-place
	// install writes the same values the pending deltas would and consumes
	// no randomness, so it is value-identical.
	discAll   bool  //trustlint:derived restore forces a full install, which subsumes any pending deltas
	honAll    bool  //trustlint:derived restore forces a full install, which subsumes any pending deltas
	discDirty []int //trustlint:derived restore forces a full install, which subsumes any pending deltas
	honDirty  []int //trustlint:derived restore forces a full install, which subsumes any pending deltas
	// Fixed-shape summation trees maintain the EpochStats means from the
	// dirty set at O(log n) per touched leaf; their roots are bitwise equal
	// to a dense rebuild over the same leaves (see metrics.SumTree), so the
	// restore path rebuilds them from the serialized vectors.
	satTree  *metrics.SumTree //trustlint:derived rebuilt from engine satisfaction state on restore
	privTree *metrics.SumTree //trustlint:derived rebuilt from ledger privacy facets on restore
	discTree *metrics.SumTree //trustlint:derived rebuilt from the serialized disclosure vector on restore
	honTree  *metrics.SumTree //trustlint:derived rebuilt from the serialized honesty vector on restore
	// denseRef disables every skip (the golden-test reference mode): all
	// users update and couple each epoch. Counters and results must remain
	// bit-identical to the sparse path.
	denseRef bool //trustlint:derived test-only reference mode, never part of a captured run
	// Reusable epoch-tail scratch, so settled-regime boundaries allocate
	// nothing in the trust/coupling/aggregate phases.
	facetDirty     metrics.DirtySet //trustlint:derived per-epoch scratch, empty between epochs
	candidates     []int            //trustlint:derived per-epoch scratch, dead between epochs
	ledgerDirtyBuf []int            //trustlint:derived per-epoch scratch, dead between epochs
	gtBuf          []float64        //trustlint:derived per-epoch scratch, dead between epochs
	scBuf          []float64        //trustlint:derived per-epoch scratch, dead between epochs
	goodBuf        []float64        //trustlint:derived per-epoch scratch, dead between epochs
	badBuf         []float64        //trustlint:derived per-epoch scratch, dead between epochs
}

// NewDynamics builds the coupled system around a mechanism sized for
// cfg.Workload.NumPeers.
func NewDynamics(cfg DynamicsConfig, mech reputation.Mechanism) (*Dynamics, error) {
	cfg = cfg.withDefaults()
	eng, err := workload.NewEngine(cfg.Workload, mech)
	if err != nil {
		return nil, fmt.Errorf("core: dynamics: %w", err)
	}
	n := cfg.Workload.NumPeers
	tm, err := NewTrustModel(n, cfg.Weights, cfg.Inertia)
	if err != nil {
		return nil, err
	}
	ledger := privacy.NewLedger()
	eng.AttachLedger(ledger, cfg.ExposureScale)
	d := &Dynamics{
		cfg:        cfg,
		eng:        eng,
		tm:         tm,
		ledger:     ledger,
		disclosure: make([]float64, n),
		honesty:    make([]float64, n),
	}
	base := cfg.Workload.Disclosure
	switch {
	case base < 0: // the config's explicit-zero sentinel
		base = 0
	case base == 0: // config zero value means "default"; see SetBaseDisclosure
		base = 1
	}
	d.baseDisclosure = base
	for i := 0; i < n; i++ {
		d.disclosure[i] = base
		d.honesty[i] = 1 // first epoch: behaviour-class honesty as-is
	}
	// Epoch 0 must run dense: no settled proof exists yet, the coupling
	// invariant is not established, and NaN never equals a real rep facet.
	d.prevRepFacet = math.NaN()
	d.couplingAll = true
	d.prevLedgerScale = eng.LedgerScale()
	// The engine's gatherer was built from the same (defaults-mapped) base
	// disclosure, so no install is pending; honesty has never been
	// installed, so its first install is a full one.
	d.discAll = false
	d.honAll = true
	d.satTree = metrics.NewSumTree(n)
	d.privTree = metrics.NewSumTree(n)
	d.discTree = metrics.NewSumTree(n)
	d.honTree = metrics.NewSumTree(n)
	leaves := make([]float64, n)
	for i := range leaves {
		leaves[i] = eng.UserSatisfaction(i)
	}
	d.satTree.Fill(leaves)
	for i := range leaves {
		leaves[i] = eng.PrivacyFacetOf(i)
	}
	d.privTree.Fill(leaves)
	d.discTree.FillUniform(base)
	d.honTree.FillUniform(1)
	return d, nil
}

// SetDenseReference switches the epoch tail into its dense reference mode:
// every epoch updates every user and recomputes the full coupling pass, with
// no settled-set or dirty-set skipping. It exists for the golden bit-identity
// suite — a dense run must reproduce the sparse run's results and counters
// bit for bit — and for diagnosing a suspected skip bug in the field.
func (d *Dynamics) SetDenseReference(on bool) { d.denseRef = on }

// SetBaseDisclosure overrides δ_base, including a true zero (which the
// Config zero value cannot express). It resets every user's current
// disclosure to the new base.
func (d *Dynamics) SetBaseDisclosure(v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("core: base disclosure %v out of [0,1]", v)
	}
	d.baseDisclosure = v
	for i := range d.disclosure {
		d.disclosure[i] = v
	}
	d.discTree.FillUniform(v)
	// The reset rewrites every cell, so the next epoch installs the full
	// vector and the next coupling pass re-derives every user from the new
	// base.
	d.discAll = true
	d.discDirty = d.discDirty[:0]
	d.couplingAll = true
	return nil
}

// SetBaseHonesty overrides h0, the truthful-reporting probability at zero
// trust (a session intervention). It takes effect in the next epoch's
// coupling update.
func (d *Dynamics) SetBaseHonesty(h float64) error {
	if h < 0 || h > 1 {
		return fmt.Errorf("core: base honesty %v out of [0,1]", h)
	}
	if h != d.cfg.BaseHonesty {
		d.cfg.BaseHonesty = h
		// h0 enters every user's honesty (and, uncoupled, every
		// disclosure-independent cell), so the next coupling pass must visit
		// everyone regardless of trust movement.
		d.couplingAll = true
	}
	return nil
}

// SetCoupled enables or disables the §3 feedback loops mid-run (a session
// intervention). A toggle switches the coupling pass between two different
// functions of trust, so the next pass must rewrite every user.
func (d *Dynamics) SetCoupled(on bool) {
	if d.cfg.Coupled != on {
		d.cfg.Coupled = on
		d.couplingAll = true
	}
}

// EpochIndex returns the index the next epoch will run as (equivalently, the
// number of completed epochs).
func (d *Dynamics) EpochIndex() int { return d.epoch }

// TrustModel exposes the trust state.
func (d *Dynamics) TrustModel() *TrustModel { return d.tm }

// Engine exposes the underlying workload engine.
func (d *Dynamics) Engine() *workload.Engine { return d.eng }

// History returns the recorded epochs.
func (d *Dynamics) History() []EpochStats {
	out := make([]EpochStats, len(d.history))
	copy(out, d.history)
	return out
}

// Epoch runs one coupling epoch and returns its stats. The phases between
// the workload barrier and the history append are sharded over the engine's
// worker count: trust updates and the coupling feedback write disjoint
// per-user state, so the fan-out preserves the pipeline's determinism
// contract (identical results for every shard count).
func (d *Dynamics) Epoch() (EpochStats, error) {
	return d.EpochCtx(context.Background())
}

// EpochCtx is Epoch with cancellation checked between workload rounds, not
// just at the epoch boundary: a served session's shutdown must not stall
// behind a large in-flight epoch. An interrupted epoch returns the
// context's error without recording history; the rounds already run stay
// merged (the engine is a shorter, not corrupt, run).
//
// The epoch tail — trust updates, §3 coupling, and the EpochStats
// aggregates — costs O(dirty + settled-transitions + log n), not Θ(n): only
// users whose facet triple changed (or who have not yet reached their
// bitwise trust fixed point) are visited, and the means are maintained in
// fixed-shape summation trees. Every skip is provably a no-op (see
// TrustModel.UpdateScattered), so the results are bit-for-bit identical to
// the dense reference path at any shard count, topology, or resume point.
func (d *Dynamics) EpochCtx(ctx context.Context) (EpochStats, error) {
	n := d.cfg.Workload.NumPeers
	shards := d.eng.Shards()
	// 1. Install this epoch's coupling variables: the full vectors when an
	// intervention (or a restore) rewrote them wholesale, otherwise just the
	// cells the last coupling pass actually moved. Installs are in-place and
	// consume no randomness.
	if d.discAll {
		d.eng.InstallDisclosure(d.disclosure)
		d.discAll = false
	} else if len(d.discDirty) > 0 {
		d.eng.UpdateDisclosure(d.discDirty, d.disclosure)
	}
	d.discDirty = d.discDirty[:0]
	if d.epoch > 0 || d.cfg.Coupled {
		if d.honAll {
			d.eng.SetHonestOverride(d.honesty)
			d.honAll = false
		} else if len(d.honDirty) > 0 {
			d.eng.ApplyHonestyDelta(d.honDirty, d.honesty)
		}
		d.honDirty = d.honDirty[:0]
	}

	// 2. Run the workload. The epoch's bad-service delta comes from the
	// engine's cumulative counters, not a log rescan.
	before := d.eng.CumulativeStats()
	itersBefore := d.eng.ComputeIterations()
	if err := d.eng.RunContext(ctx, d.cfg.EpochRounds); err != nil {
		return EpochStats{}, err
	}
	after := d.eng.CumulativeStats()
	bad := after.BadService - before.BadService
	interactions := after.Interactions - before.Interactions

	// 3. Measure the shared reputation facet over the served set — the same
	// computation Assess performs, folded over the engine's incremental
	// accumulators into reusable buffers instead of n-sized slices.
	d.eng.BarrierCompute()
	scores := reputation.ScoresOf(d.eng.Mechanism())
	served := d.eng.ServedProviders()
	d.gtBuf, d.scBuf = d.gtBuf[:0], d.scBuf[:0]
	d.goodBuf, d.badBuf = d.goodBuf[:0], d.badBuf[:0]
	for _, p := range served {
		q := d.eng.ProviderQuality(p)
		d.gtBuf = append(d.gtBuf, q)
		d.scBuf = append(d.scBuf, scores[p])
		if q >= 0.5 {
			d.goodBuf = append(d.goodBuf, scores[p])
		} else {
			d.badBuf = append(d.badBuf, scores[p])
		}
	}
	tau := metrics.KendallTau(d.scBuf, d.gtBuf)
	tau01 := (tau + 1) / 2
	separation := metrics.AUC(d.goodBuf, d.badBuf)
	power := tau01
	if !math.IsNaN(separation) {
		power = (tau01 + separation) / 2
	}
	community := 1.0
	if ca, ok := d.eng.Mechanism().(reputation.CommunityAssessor); ok {
		community = ca.TrustworthyFraction()
	}
	repFacet := power * (0.5 + 0.5*community)

	// 4. Assemble the facet dirty set: users whose satisfaction EMA was
	// touched, owners whose privacy ledger state changed, and — when the
	// global reputation facet or the exposure scale moved — everyone.
	// The set is assembled identically on the dense reference path, so the
	// DirtyFacets counter is schedule-independent.
	repChanged := math.IsNaN(d.prevRepFacet) || repFacet != d.prevRepFacet
	d.prevRepFacet = repFacet
	scale := d.eng.LedgerScale()
	scaleChanged := scale != d.prevLedgerScale
	d.prevLedgerScale = scale
	d.facetDirty.Reset()
	satTouched := d.eng.SatisfactionTouched()
	for _, u := range satTouched {
		d.facetDirty.Mark(u)
	}
	// The ledger owns its dirty list and the reset below clears it, so
	// snapshot it first.
	d.ledgerDirtyBuf = append(d.ledgerDirtyBuf[:0], d.eng.LedgerDirtyOwners()...)
	for _, u := range d.ledgerDirtyBuf {
		if u < n {
			d.facetDirty.Mark(u)
		}
	}
	allDirty := repChanged || scaleChanged || d.denseRef
	dirtyFacets := d.facetDirty.Len()
	if repChanged || scaleChanged {
		dirtyFacets = n
	}

	// Fold the touched leaves into the aggregate trees (O(log n) each). A
	// skipped leaf's sources are untouched, so its recomputed value would be
	// bit-identical.
	d.eng.ResetLedgerDirty()
	for _, u := range satTouched {
		d.satTree.Set(u, d.eng.UserSatisfaction(u))
	}
	d.eng.ResetSatisfactionTouched()
	if scaleChanged {
		for u := 0; u < n; u++ {
			d.privTree.Set(u, d.eng.PrivacyFacetOf(u))
		}
	} else {
		for _, u := range d.ledgerDirtyBuf {
			if u < n {
				d.privTree.Set(u, d.eng.PrivacyFacetOf(u))
			}
		}
	}

	// 5. Update trust for the candidates — facet-dirty users plus everyone
	// not yet at a bitwise fixed point — or for everyone on a dense epoch.
	// Facets are read on demand; no per-user []Facets is materialized.
	facetOf := func(u int) Facets {
		return Facets{
			Satisfaction: d.eng.UserSatisfaction(u),
			Reputation:   repFacet,
			Privacy:      d.eng.PrivacyFacetOf(u),
		}
	}
	if allDirty {
		if err := d.tm.UpdateScattered(nil, true, facetOf, shards); err != nil {
			return EpochStats{}, err
		}
	} else {
		d.candidates = mergeAscending(d.candidates[:0], d.facetDirty.Sorted(), d.tm.UnsettledIDs())
		if err := d.tm.UpdateScattered(d.candidates, false, facetOf, shards); err != nil {
			return EpochStats{}, err
		}
	}

	// 6. Close the §3 loops for the next epoch. Only visited users' trust
	// can have moved, so the sparse pass revisits exactly the update
	// candidates; interventions that change the feedback functions
	// themselves (couplingAll) force a full rewrite. Cells are written — and
	// queued for next epoch's delta install — only when their value actually
	// changes.
	base := d.baseDisclosure
	fullPass := d.couplingAll || allDirty
	d.couplingAll = false
	if d.cfg.Coupled {
		couple := func(u int, queue bool) {
			t := d.tm.Trust(u)
			// δ_u = δ_base · 2T (clamped): neutral trust keeps the base,
			// distrust withholds, strong trust discloses up to fully.
			delta := base * 2 * t
			if delta > 1 {
				delta = 1
			}
			if delta < 0 {
				delta = 0
			}
			if delta != d.disclosure[u] {
				d.disclosure[u] = delta
				d.discTree.Set(u, delta)
				if queue {
					d.discDirty = append(d.discDirty, u)
				}
			}
			h := d.cfg.BaseHonesty + (1-d.cfg.BaseHonesty)*t
			if h != d.honesty[u] {
				d.honesty[u] = h
				d.honTree.Set(u, h)
				if queue {
					d.honDirty = append(d.honDirty, u)
				}
			}
		}
		if fullPass {
			// A full pass may move most cells; install the whole vectors next
			// epoch instead of queueing deltas.
			for u := 0; u < n; u++ {
				couple(u, false)
			}
			d.discAll, d.honAll = true, true
			d.discDirty, d.honDirty = d.discDirty[:0], d.honDirty[:0]
		} else {
			for _, u := range d.candidates {
				couple(u, true)
			}
		}
	} else if fullPass {
		// Uncoupled, the variables are trust-independent constants; once
		// written they cannot drift, so only intervention epochs pass here.
		honConst := d.cfg.BaseHonesty + (1-d.cfg.BaseHonesty)*0.5
		for u := 0; u < n; u++ {
			if base != d.disclosure[u] {
				d.disclosure[u] = base
				d.discTree.Set(u, base)
			}
			if honConst != d.honesty[u] {
				d.honesty[u] = honConst
				d.honTree.Set(u, honConst)
			}
		}
		d.discAll, d.honAll = true, true
		d.discDirty, d.honDirty = d.discDirty[:0], d.honDirty[:0]
	}

	// 7. The epoch's aggregates come from the trees' roots: bitwise equal to
	// a dense recompute over the same fixed shape, O(1) to read.
	st := EpochStats{
		Epoch:        d.epoch,
		Trust:        d.tm.GlobalTrust(),
		Satisfaction: d.satTree.Mean(),
		Reputation:   repFacet,
		Privacy:      d.privTree.Mean(),
		Disclosure:   d.discTree.Mean(),
		Honesty:      d.honTree.Mean(),
		Tau:          tau,
		Community:    community,
		SettledUsers: d.tm.SettledCount(),
		DirtyFacets:  dirtyFacets,
	}
	st.MechIterations = int(d.eng.ComputeIterations() - itersBefore)
	if conv, ok := d.eng.Convergence(); ok {
		st.MechResidual = conv.Residual
	}
	if interactions > 0 {
		st.BadRate = float64(bad) / float64(interactions)
	}
	d.epoch++
	d.history = append(d.history, st)
	return st, nil
}

// mergeAscending merges two ascending int slices into dst without
// duplicates.
func mergeAscending(dst, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// Run executes n epochs.
func (d *Dynamics) Run(n int) ([]EpochStats, error) {
	for i := 0; i < n; i++ {
		if _, err := d.Epoch(); err != nil {
			return nil, err
		}
	}
	return d.History(), nil
}

// MapConfig configures the abstract trust/satisfaction iterated map used to
// verify §3's first claim ("the more a user trusts towards the system, the
// more she is satisfied, and the more she is satisfied, the more she
// trusts") without simulation noise.
type MapConfig struct {
	// Reputation and Privacy are held fixed.
	Reputation, Privacy float64
	// Weights combine the facets (default DefaultWeights).
	Weights Weights
	// Inertia smooths the trust update (default 0.5).
	Inertia float64
	// SatBase and SatGain define the satisfaction response
	// s = SatBase + SatGain·T (clamped to [0,1]); the positive gain is the
	// "more trust ⇒ more satisfaction" half of the loop.
	SatBase, SatGain float64
}

func (c MapConfig) withDefaults() MapConfig {
	if c.Weights == (Weights{}) {
		c.Weights = DefaultWeights()
	}
	if c.Inertia == 0 {
		c.Inertia = 0.5
	}
	if c.SatGain == 0 {
		c.SatGain = 0.8
	}
	if c.SatBase == 0 {
		c.SatBase = 0.1
	}
	return c
}

// RunIteratedMap iterates the two-way trust/satisfaction coupling from t0
// for `steps` steps and returns the trust trajectory (first element t0).
func RunIteratedMap(t0 float64, steps int, cfg MapConfig) ([]float64, error) {
	cfg = cfg.withDefaults()
	if t0 < 0 || t0 > 1 {
		return nil, fmt.Errorf("core: initial trust %v out of [0,1]", t0)
	}
	traj := make([]float64, 0, steps+1)
	traj = append(traj, t0)
	t := t0
	for k := 0; k < steps; k++ {
		s := cfg.SatBase + cfg.SatGain*t
		if s > 1 {
			s = 1
		}
		if s < 0 {
			s = 0
		}
		phi, err := Combine(Facets{Satisfaction: s, Reputation: cfg.Reputation, Privacy: cfg.Privacy}, cfg.Weights)
		if err != nil {
			return nil, err
		}
		t = cfg.Inertia*t + (1-cfg.Inertia)*phi
		traj = append(traj, t)
	}
	return traj, nil
}
