package workload

import (
	"repro/internal/privacy"
	"repro/internal/reputation"
	"repro/internal/sim"
	"repro/internal/social"
)

// The sharded round pipeline.
//
// A round is executed in three phases so that interaction simulation can run
// on K parallel shards while every observable result stays bit-for-bit
// identical for every K:
//
//  1. plan (sequential): the main RNG stream draws each interaction's
//     consumer and splits off a private per-interaction stream. The split
//     sequence depends only on the interaction index, never on shard
//     boundaries.
//  2. scatter (parallel): shards own contiguous chunks of the interaction
//     index range and simulate each interaction — candidate sampling,
//     gating, provider selection, service and rating draws — using only the
//     interaction's private stream and state that is immutable for the
//     round (scores, graph, behaviours, honesty override).
//  3. gather (sequential): results merge into the shared mutable state
//     (transaction ids, satisfaction EMAs, disclosure ledger, gatherer →
//     mechanism) in interaction-index order, so transaction ids, EMA folds
//     and the gatherer's disclosure draws are canonical.

// planRound draws the round's interaction schedule from the main stream.
// Consumers come from the active-peer index when churn has thinned the
// population (nil pool = everyone present = uniform over 0..n, identical
// draws to index-free planning). The Zipf activity path keeps mapping over
// the full id range — its skew is a property of peer identity, so absent
// heavy hitters simply drop their requests in simulate.
func (e *Engine) planRound(pool []int) []PlannedInteraction {
	plans := make([]PlannedInteraction, e.cfg.InteractionsPerRound)
	for k := range plans {
		var consumer int
		switch {
		case e.activity != nil:
			consumer = e.activityOrder[e.activity.Next()]
		case len(pool) > 0:
			consumer = pool[e.rng.Intn(len(pool))]
		default:
			consumer = e.rng.Intn(e.cfg.NumPeers)
		}
		plans[k] = PlannedInteraction{Consumer: consumer, RNG: e.rng.Split().State()}
	}
	return plans
}

// scatter simulates every planned interaction, fanning the index range out
// over the engine's shards — or, when a scatter delegate is installed and
// accepts, handing the whole phase to the external executor (the cluster
// master). The delegate contract (see cluster.go) makes the two paths
// bit-identical.
func (e *Engine) scatter(plans []PlannedInteraction, scores []float64, gate float64, pool []int, round int) []InteractionOutcome {
	if e.scatterDelegate != nil {
		if out, ok := e.scatterDelegate(plans, scores, gate, pool, round); ok && len(out) == len(plans) {
			return out
		}
	}
	return e.SimulateChunk(plans, scores, gate, pool, round)
}

// simulate runs one interaction against round-immutable state. It must not
// touch any state shared across interactions: all randomness comes from the
// plan's private stream, and every mutation is deferred to gather. The round
// index is passed explicitly (rather than read off the engine) so a worker
// replica can simulate the master's round without advancing its own clock.
func (e *Engine) simulate(rng *sim.RNG, consumer int, scores []float64, gate float64, pool []int, round int) InteractionOutcome {
	r := InteractionOutcome{Consumer: consumer, Provider: -1}
	if !e.PeerActive(consumer) {
		r.Absent = true
		return r
	}
	candidates := e.sampleCandidates(rng, consumer, pool)
	if gate >= 0 {
		eligible := candidates[:0]
		for _, c := range candidates {
			if scores[c] >= gate {
				eligible = append(eligible, c)
			}
		}
		if len(eligible) == 0 {
			r.GateFailed = true
			return r
		}
		candidates = eligible
	}
	r.Candidates = candidates
	var provider int
	switch e.cfg.Selection {
	case SelectProportional:
		provider = reputation.SelectProportional(rng, scores, candidates)
	default:
		provider = reputation.SelectBest(rng, scores, candidates)
	}
	if provider < 0 {
		return r
	}
	r.Provider = provider
	pu := e.snet.User(provider)
	if !pu.Behavior.Serves(rng) {
		r.Refused = true
		r.Honest = true
		return r
	}
	r.Quality = pu.Behavior.ServiceQuality(rng, round)
	r.Rating, r.Honest = e.rate(rng, e.snet.User(consumer), consumer, provider, r.Quality)
	return r
}

// gather merges the shard results into the shared state in canonical
// (interaction-index) order.
func (e *Engine) gather(results []InteractionOutcome, st *RoundStats) {
	for k := range results {
		r := &results[k]
		if r.Absent {
			continue
		}
		if r.GateFailed {
			e.GateFailures++
			e.consumers[r.Consumer].ObserveFailure()
			e.satDirty.Mark(r.Consumer)
			continue
		}
		if r.Provider < 0 {
			e.consumers[r.Consumer].ObserveFailure()
			e.satDirty.Mark(r.Consumer)
			continue
		}
		st.Interactions++
		tx := e.snet.NextTxID()
		if e.tap != nil {
			e.tap(r)
		}

		// The provider judges the (possibly imposed) request against its
		// own intentions.
		e.providers[r.Provider].Observe(r.Consumer)
		e.satDirty.Mark(r.Provider)
		e.satDirty.Mark(r.Consumer)

		if r.Refused {
			st.BadService++
			st.Refused++
			e.recordServed(r.Provider, 0)
			e.consumers[r.Consumer].ObserveQuality(r.Provider, r.Candidates, 0)
			e.consumers[r.Consumer].UpdatePreference(r.Provider, 0)
			e.offerReport(tx, r.Consumer, r.Provider, 0)
			continue
		}

		// The consumer judges the allocation against its intentions and the
		// quality it actually received.
		e.consumers[r.Consumer].ObserveQuality(r.Provider, r.Candidates, r.Quality)
		if r.Quality < 0.5 {
			st.BadService++
		}
		e.recordServed(r.Provider, r.Quality)
		e.consumers[r.Consumer].UpdatePreference(r.Provider, r.Quality)
		if e.ledger != nil {
			// Interacting discloses the consumer's profile to the provider.
			e.ledger.Record(privacy.Disclosure{
				Owner:       r.Consumer,
				Item:        e.profileItem[r.Consumer],
				Sensitivity: social.Medium,
				Recipient:   r.Provider,
				Purpose:     privacy.SocialUse,
				Consented:   true,
			})
		}
		e.offerReport(tx, r.Consumer, r.Provider, r.Rating)
	}
}

// recordServed folds one served (or refused, quality 0) interaction into the
// incremental ground-truth accumulators, sparing facet measurement a full
// log rescan.
func (e *Engine) recordServed(provider int, quality float64) {
	e.servedCount[provider]++
	if e.servedCount[provider] == 1 {
		e.servedStale = true
	}
	e.qualSum[provider] += quality
}
